"""R007 — wall-clock reads must flow through ``repro.obs``.

Telemetry is centralised: :mod:`repro.obs` owns the clock so spans share
one origin and land on the flight timeline beside the decisions, and
bench baselines stay comparable.  Ad-hoc ``time.perf_counter()`` /
``time.time()`` calls scattered through the library fragment the timing
story (mixed clock sources, no tags, invisible to the exporters) — record
a span or counter instead.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.rules.base import Finding, LintContext, Rule, Severity, dotted_name

__all__ = ["DirectTimingRule"]

#: the observability package owns the clock
_EXEMPT_PREFIX = "repro.obs"

#: ``time`` module attributes that read a clock
_CLOCK_CALLS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)


class DirectTimingRule(Rule):
    """Flag direct ``time.*`` clock reads outside ``repro.obs``."""

    rule_id = "R007"
    severity = Severity.ERROR
    summary = "clock reads must flow through repro.obs"
    fix_hint = "wrap the timed region in a repro.obs recorder span"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.module == _EXEMPT_PREFIX or ctx.module.startswith(_EXEMPT_PREFIX + "."):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module != "time":
                    continue
                for alias in node.names:
                    if alias.name in _CLOCK_CALLS:
                        yield self.finding(
                            ctx,
                            node,
                            f"import of time.{alias.name} bypasses repro.obs — "
                            "time regions with a recorder span",
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                module, _, attr = name.rpartition(".")
                if module == "time" and attr in _CLOCK_CALLS:
                    yield self.finding(
                        ctx,
                        node,
                        f"direct call to {name}() bypasses repro.obs — "
                        "time regions with a recorder span",
                    )
