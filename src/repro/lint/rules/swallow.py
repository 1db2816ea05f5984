"""R009 — no silently swallowed exceptions.

A ``pass``-only handler (``except ValueError: pass``) or a broad
``contextlib.suppress(Exception)`` erases an error without leaving a
trace: no log line, no flight event, no counter.  In a reproducibility
codebase that is worse than a crash — the run completes with quietly
wrong state and the divergence surfaces far from its cause.

No package is exempt, the fault-injection and recovery subsystem
(:mod:`repro.faults`) included: absorbing an induced failure means
counting it or recording it in the flight log, never dropping it.
Either handle the error visibly (log it, emit a flight event, count it,
fall back to a computed value) or let it propagate.

Relationship to R005: R005 polices *what* may be caught (bare ``except:``
and swallowed broad/invariant catches); R009 polices *doing nothing* with
whatever was caught, however narrow, and extends the same discipline to
``contextlib.suppress``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.rules.base import Finding, LintContext, Rule, Severity, dotted_name

__all__ = ["SwallowedExceptionRule"]

#: suppress() arguments considered overly broad
_BROAD_SUPPRESS = frozenset(
    {"Exception", "BaseException", "InvariantViolation", "AssertionError"}
)


def _is_noop(stmt: ast.stmt) -> bool:
    """True for statements that do nothing: ``pass``, ``...``, docstrings."""
    if isinstance(stmt, ast.Pass):
        return True
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


def _caught_label(handler: ast.ExceptHandler) -> str:
    if handler.type is None:
        return "everything"
    name = dotted_name(handler.type)
    if name is not None:
        return name
    if isinstance(handler.type, ast.Tuple):
        names = [dotted_name(e) or "?" for e in handler.type.elts]
        return "(" + ", ".join(names) + ")"
    return "?"


class SwallowedExceptionRule(Rule):
    """Flag pass-only handlers and broad ``contextlib.suppress`` calls."""

    rule_id = "R009"
    severity = Severity.ERROR
    summary = "no silently swallowed exceptions"
    fix_hint = (
        "log / emit / count the error inside the handler, or let it propagate"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                if all(_is_noop(stmt) for stmt in node.body):
                    yield self.finding(
                        ctx,
                        node,
                        f"handler catches {_caught_label(node)} and does nothing "
                        "with it",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name not in ("suppress", "contextlib.suppress"):
                    continue
                broad = [
                    arg_name.rsplit(".", maxsplit=1)[-1]
                    for arg in node.args
                    if (arg_name := dotted_name(arg)) is not None
                    and arg_name.rsplit(".", maxsplit=1)[-1] in _BROAD_SUPPRESS
                ]
                if broad:
                    yield self.finding(
                        ctx,
                        node,
                        f"contextlib.suppress({', '.join(broad)}) silently drops "
                        "broad exceptions",
                    )
