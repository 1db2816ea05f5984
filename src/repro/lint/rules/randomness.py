"""R001 — no unseeded or out-of-band randomness.

Determinism is load-bearing: resume/replay of a workload trace, the
Table IV seed sweeps, and regression baselines all assume that a seed
pins every stochastic draw.  The only sanctioned entry point is
:func:`repro.util.rng.make_rng`; ``random.*`` and ``np.random.*`` calls
anywhere else create hidden global streams that break bit-for-bit
reproducibility.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.rules.base import Finding, LintContext, Rule, Severity, dotted_name

__all__ = ["UnseededRandomnessRule"]

#: modules allowed to touch numpy's RNG machinery directly
_EXEMPT_MODULES = frozenset({"repro.util.rng"})


class UnseededRandomnessRule(Rule):
    """Flag stdlib ``random`` usage and direct ``np.random.*`` calls."""

    rule_id = "R001"
    severity = Severity.ERROR
    summary = "randomness must flow through repro.util.rng"
    fix_hint = "seed via repro.util.rng.make_rng"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.module in _EXEMPT_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("numpy.random"):
                        yield self.finding(
                            ctx, node, f"import of {alias.name!r} bypasses the seeded-RNG policy"
                        )
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if mod == "random" or mod.startswith("numpy.random"):
                    yield self.finding(
                        ctx, node, f"import from {mod!r} bypasses the seeded-RNG policy"
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                if name.startswith(("np.random.", "numpy.random.")):
                    yield self.finding(
                        ctx,
                        node,
                        f"direct call to {name} — route through repro.util.rng",
                    )
                elif name.startswith("random."):
                    yield self.finding(
                        ctx,
                        node,
                        f"stdlib randomness {name} is unseeded — route through repro.util.rng",
                    )
