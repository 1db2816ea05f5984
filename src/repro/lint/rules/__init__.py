"""The pluggable rule registry for ``reprolint``.

Adding a per-file rule = writing a :class:`~repro.lint.rules.base.Rule`
subclass in a module here and listing the class in :data:`ALL_RULES`.
Whole-program rules subclass
:class:`~repro.lint.rules.base.ProjectRule` instead and implement
``check_project``; the engine feeds them the parsed project.
"""

from __future__ import annotations

from repro.lint.rules.base import (
    Finding,
    LintContext,
    ProjectRule,
    Rule,
    Severity,
)
from repro.lint.rules.concurrency import SharedMutationRule
from repro.lint.rules.determinism import DeterminismTaintRule, OrderDependenceRule
from repro.lint.rules.exceptions import ExceptionHygieneRule
from repro.lint.rules.exports import AllConsistencyRule
from repro.lint.rules.floatcmp import FloatEqualityRule
from repro.lint.rules.mutation import AllocationMutationRule
from repro.lint.rules.parity import KernelParityRule
from repro.lint.rules.printing import BarePrintRule
from repro.lint.rules.randomness import UnseededRandomnessRule
from repro.lint.rules.swallow import SwallowedExceptionRule
from repro.lint.rules.tasks import FireAndForgetTaskRule
from repro.lint.rules.timing import DirectTimingRule
from repro.lint.rules.unused import UnusedDefinitionRule
from repro.lint.rules.validation import MissingValidationRule
from repro.lint.rules.vectorization import ScalarMessageLoopRule

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "ProjectRule",
    "Severity",
    "UnseededRandomnessRule",
    "FloatEqualityRule",
    "AllocationMutationRule",
    "MissingValidationRule",
    "ExceptionHygieneRule",
    "AllConsistencyRule",
    "DirectTimingRule",
    "BarePrintRule",
    "SwallowedExceptionRule",
    "ScalarMessageLoopRule",
    "DeterminismTaintRule",
    "OrderDependenceRule",
    "SharedMutationRule",
    "KernelParityRule",
    "FireAndForgetTaskRule",
    "UnusedDefinitionRule",
    "ALL_RULES",
    "get_rules",
]

#: every shipped rule, in rule-id order
ALL_RULES: tuple[type[Rule], ...] = (
    UnseededRandomnessRule,
    FloatEqualityRule,
    AllocationMutationRule,
    MissingValidationRule,
    ExceptionHygieneRule,
    AllConsistencyRule,
    DirectTimingRule,
    BarePrintRule,
    SwallowedExceptionRule,
    ScalarMessageLoopRule,
    DeterminismTaintRule,
    OrderDependenceRule,
    SharedMutationRule,
    KernelParityRule,
    FireAndForgetTaskRule,
    UnusedDefinitionRule,
)


def get_rules(select: list[str] | None = None) -> list[Rule]:
    """Instantiate the selected rules (all of them when ``select`` is None)."""
    if select is None:
        return [cls() for cls in ALL_RULES]
    by_id = {cls.rule_id: cls for cls in ALL_RULES}
    unknown = [rid for rid in select if rid not in by_id]
    if unknown:
        known = ", ".join(sorted(by_id))
        raise ValueError(f"unknown rule id(s) {unknown}; known: {known}")
    return [by_id[rid]() for rid in select]
