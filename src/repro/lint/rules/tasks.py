"""R015 — no fire-and-forget asyncio tasks outside supervised roots.

``asyncio.create_task(...)`` whose returned task is dropped on the floor
is a leak with teeth: the event loop holds only a weak reference, so the
task can be garbage-collected mid-flight, and any exception it raises is
reported to nobody (at best a "Task exception was never retrieved" line
at interpreter exit).  Every spawned task must be retained — assigned,
appended to a registry, awaited, or handed to a supervisor that watches
it.  The serving tier's scheduler is the one sanctioned supervision
root: it keeps every task it spawns and reaps it on shutdown, and the
fleet fault campaigns exist precisely to kill its tasks and prove the
supervision works.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.rules.base import Finding, LintContext, Rule, Severity

__all__ = ["FireAndForgetTaskRule"]

#: modules whose spawned tasks are supervised by construction (the
#: scheduler's worker pool + supervisor); everywhere else a dropped task
#: handle is a leak
_SUPERVISED_PREFIXES = ("repro.serve.scheduler",)

_SPAWNERS = frozenset({"create_task", "ensure_future"})


def _is_spawn_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _SPAWNERS
    if isinstance(func, ast.Attribute):
        return func.attr in _SPAWNERS
    return False


class FireAndForgetTaskRule(Rule):
    """Flag spawned asyncio tasks whose handle is immediately discarded."""

    rule_id = "R015"
    severity = Severity.ERROR
    summary = "fire-and-forget asyncio.create_task() outside a supervised root"
    fix_hint = (
        "retain the task (assign it, append it to a registry the shutdown "
        "path awaits) or spawn it under the scheduler's supervision root"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in _SUPERVISED_PREFIXES
        ):
            return
        for node in ast.walk(ctx.tree):
            dropped: ast.expr | None = None
            if isinstance(node, ast.Expr) and _is_spawn_call(node.value):
                # a bare statement: the task handle is never bound at all
                dropped = node.value
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "_"
                and _is_spawn_call(node.value)
            ):
                # assigning to ``_`` is discarding with extra steps
                dropped = node.value
            if dropped is not None:
                yield self.finding(
                    ctx,
                    dropped,
                    "spawned task is never retained — the loop keeps only a "
                    "weak reference and its exceptions vanish; hold the "
                    "handle and await or supervise it",
                )
