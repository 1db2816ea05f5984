"""R010 — no per-message Python loops over ``MessageSet`` fields.

The communication hot paths (link loads, hop-bytes, ledgers, schedules)
are vectorised: a :class:`~repro.mpisim.alltoallv.MessageSet` is three
parallel numpy arrays, and iterating them element by element in Python
(``for s, d, b in zip(messages.src, messages.dst, messages.nbytes)``)
re-introduces exactly the O(n)-interpreted-ops cost the vector kernels
removed — silently, because the result is still correct.  Reduce with
array ops (``np.unique`` + ``np.bincount``, ``np.add.at``, broadcast
comparisons) instead.

The scalar oracles are the one sanctioned home for such loops: any code
inside a function whose name contains ``reference`` is exempt.  That is
the naming convention of the test-only oracles, which R014 keeps out of
shipped call paths (``docs/performance.md``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.rules.base import Finding, LintContext, Rule, Severity

__all__ = ["ScalarMessageLoopRule"]

#: the three parallel arrays of a MessageSet
_MESSAGE_FIELDS = frozenset({"src", "dst", "nbytes"})


def _message_fields_in(expr: ast.expr) -> list[str]:
    """MessageSet field attributes read anywhere inside ``expr``."""
    return [
        node.attr
        for node in ast.walk(expr)
        if isinstance(node, ast.Attribute) and node.attr in _MESSAGE_FIELDS
    ]


def _iter_exprs(node: ast.AST) -> list[ast.expr]:
    """The iterable expressions a loop-like node walks element by element."""
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return [gen.iter for gen in node.generators]
    return []


class ScalarMessageLoopRule(Rule):
    """Flag per-element loops over MessageSet fields outside oracles."""

    rule_id = "R010"
    severity = Severity.ERROR
    summary = "per-message Python loop over MessageSet fields"
    fix_hint = (
        "reduce with array ops (np.unique + np.bincount, np.add.at) or "
        "move the loop into a *reference* oracle function"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        yield from self._walk(ctx, ctx.tree, exempt=False)

    def _walk(
        self, ctx: LintContext, node: ast.AST, exempt: bool
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_exempt = exempt
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_exempt = exempt or "reference" in child.name
            if not child_exempt:
                for it in _iter_exprs(child):
                    fields = _message_fields_in(it)
                    if fields:
                        names = "/".join(sorted(set(fields)))
                        yield self.finding(
                            ctx,
                            child,
                            f"per-element loop over MessageSet field(s) "
                            f"{names} — vectorise with array ops, or rename "
                            "the enclosing function as a *reference* oracle",
                        )
                        break  # one finding per loop, not per field
            yield from self._walk(ctx, child, child_exempt)
