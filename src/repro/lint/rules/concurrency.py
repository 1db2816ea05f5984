"""R013: shared-state mutation reachable from async worker code.

The multi-tenant service (:mod:`repro.serve`) runs the synchronous entry
points (``run_workload``, ``run_soak``, ``parallel_data_analysis``) on
worker tasks that share one process.  Any write to process-global state
— a ``global`` statement, or an attribute assignment on a *shared*
object handed in by the caller (``ExperimentContext``, the netsim, the
ledger, recorders) — becomes a race the moment two workers overlap.
This pass walks the call graph forward from the worker entry points and
flags those writes.

Roots are the classic entry points **plus** the serve tier's own worker
surface: every coroutine and every handler-shaped function (``handle*``,
``advance``, ``submit``) defined in a ``repro.serve`` module — the code
that actually runs concurrently once the service is up.

Reachable code is also checked for Python's quietest shared-state trap:
a **mutable default argument** that the function then mutates.  The
default is created once at ``def`` time and shared by every call from
every worker, so ``def handler(pending=[])`` + ``pending.append(...)``
is a cross-session leak wearing a local-variable costume.

``ProcessorReallocator`` is deliberately not on the shared list: each
worker owns its reallocator, and fault recovery mutates it in place by
documented design.  Methods mutating ``self`` are likewise fine — the
hazard is mutating somebody else's object.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.callgraph import get_callgraph
from repro.lint.dataflow import reachable_with_paths, render_path
from repro.lint.project import FunctionInfo, Project, _annotation_names
from repro.lint.rules.base import Finding, ProjectRule

__all__ = ["SharedMutationRule"]

#: functions the service runs on concurrent workers
WORKER_ENTRY_POINTS = (
    "run_workload",
    "run_both_strategies",
    "run_soak",
    "parallel_data_analysis",
)

#: dotted module prefix whose coroutine/handler functions are also roots
SERVE_MODULE_PREFIX = "repro.serve"

#: handler-shaped function names inside serve modules (beyond coroutines)
SERVE_HANDLER_NAMES = ("advance", "submit")
SERVE_HANDLER_PREFIX = "handle"

#: dict/set/list methods that mutate the receiver in place
_MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: classes whose instances are shared across a run (bare names —
#: annotations frequently use strings / TYPE_CHECKING imports)
SHARED_CLASSES = (
    "ExperimentContext",
    "NetworkSimulator",
    "CommLedger",
    "RankStore",
    "AuditTrail",
    "FlightRecorder",
)


class SharedMutationRule(ProjectRule):
    """R013: worker-reachable writes to globals or shared parameters."""

    rule_id = "R013"
    summary = (
        "code reachable from async worker entry points mutates global or "
        "shared-object state"
    )
    fix_hint = (
        "replace module globals with contextvars.ContextVar and return "
        "new values instead of assigning attributes on shared parameters"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = get_callgraph(project)
        roots = [
            q
            for q, fn in project.functions.items()
            if fn.name in WORKER_ENTRY_POINTS or _is_serve_root(fn)
        ]
        reach = reachable_with_paths(graph.edges, roots)
        for qualname in sorted(reach):
            fn = project.functions.get(qualname)
            if fn is None:
                continue
            suffix = f" (reachable via {render_path(reach[qualname])})"
            for node, label in self._mutations(fn):
                yield self.finding_at(fn, node, label + suffix)

    def _mutations(
        self, fn: FunctionInfo
    ) -> Iterator[tuple[ast.AST, str]]:
        shared_params = self._shared_params(fn)
        mutable_defaults = self._mutable_default_params(fn)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                names = ", ".join(node.names)
                yield node, f"assigns module global(s) {names}"
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in shared_params
                    ):
                        cls = shared_params[target.value.id]
                        yield (
                            node,
                            f"writes {target.value.id}.{target.attr} on shared "
                            f"{cls} parameter",
                        )
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in mutable_defaults
                    ):
                        yield (
                            node,
                            f"mutates parameter {target.value.id} whose default "
                            f"is a shared mutable {mutable_defaults[target.value.id]}",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in mutable_defaults
            ):
                name = node.func.value.id
                yield (
                    node,
                    f"calls {name}.{node.func.attr}() on parameter {name} whose "
                    f"default is a shared mutable {mutable_defaults[name]}",
                )

    @staticmethod
    def _mutable_default_params(fn: FunctionInfo) -> dict[str, str]:
        """Parameter name -> kind, for params defaulting to a mutable literal."""
        out: dict[str, str] = {}
        args = fn.node.args
        positional = args.posonlyargs + args.args
        # defaults align with the *tail* of the positional parameters
        for p, default in zip(positional[len(positional) - len(args.defaults) :],
                              args.defaults):
            kind = _mutable_literal_kind(default)
            if kind is not None:
                out[p.arg] = kind
        for p, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is None:
                continue
            kind = _mutable_literal_kind(kw_default)
            if kind is not None:
                out[p.arg] = kind
        return out

    @staticmethod
    def _shared_params(fn: FunctionInfo) -> dict[str, str]:
        """Parameter name -> shared class bare name (excluding self/cls)."""
        out: dict[str, str] = {}
        args = fn.node.args
        for p in args.posonlyargs + args.args + args.kwonlyargs:
            if p.arg in ("self", "cls"):
                continue
            for name in _annotation_names(p.annotation):
                bare = name.split(".")[-1]
                if bare in SHARED_CLASSES:
                    out[p.arg] = bare
                    break
        return out


def _is_serve_root(fn: FunctionInfo) -> bool:
    """Is ``fn`` part of the serve tier's concurrent worker surface?"""
    module = fn.module
    if module != SERVE_MODULE_PREFIX and not module.startswith(
        SERVE_MODULE_PREFIX + "."
    ):
        return False
    if isinstance(fn.node, ast.AsyncFunctionDef):
        return True
    return fn.name in SERVE_HANDLER_NAMES or fn.name.startswith(SERVE_HANDLER_PREFIX)


def _mutable_literal_kind(node: ast.expr) -> str | None:
    """"dict"/"list"/"set" when ``node`` is a mutable default literal."""
    if isinstance(node, ast.Dict):
        return "dict"
    if isinstance(node, ast.List):
        return "list"
    if isinstance(node, ast.Set):
        return "set"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set")
        and not node.args
        and not node.keywords
    ):
        return node.func.id
    return None
