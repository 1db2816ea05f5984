"""R011/R012: interprocedural determinism taint.

Replay, audit and ledger comparisons are only meaningful when every value
that flows into them is a pure function of the seeded inputs.  These two
passes walk the whole-program call graph backwards from the *decision and
record* sinks — flight recorder, comm ledger, ``DynamicStrategy`` policy
code — and flag any function on a path into them that reads a
nondeterministic source:

* **R011** — wall clocks (``time.time``/``perf_counter``/...,
  ``datetime.now``) outside ``repro.obs`` (the one sanctioned clock
  owner, rule R007), and unseeded RNG: any ``random.*`` /
  ``numpy.random.*`` module-level call outside ``repro.util.rng``, or
  ``make_rng()`` called without a seed (OS entropy).
* **R012** — environment reads (``os.environ`` / ``os.getenv``) outside
  the sanctioned config readers, and iteration over ``set`` /
  ``frozenset`` expressions whose order feeds downstream state (string
  hashes are salted per process, so set order is not replayable).
  Set-to-set comprehensions and order-insensitive reducers
  (``sorted``/``sum``/``min``/``max``/``any``/``all``/``len``/
  ``set``/``frozenset``) are exempt.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.callgraph import CallGraph, get_callgraph
from repro.lint.dataflow import reachable_with_paths, render_path
from repro.lint.project import FunctionInfo, Project
from repro.lint.astutil import dotted_name
from repro.lint.rules.base import Finding, ProjectRule

__all__ = ["DeterminismTaintRule", "OrderDependenceRule"]

#: modules whose functions are determinism *sinks* (record/decide state)
SINK_MODULES = (
    "repro.obs.flight",
    "repro.obs.recorder",
    "repro.mpisim.ledger",
    "repro.core.dynamic",
)
#: classes whose methods are sinks regardless of module
SINK_CLASSES = ("DynamicStrategy",)

_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)
_DATETIME_SUFFIXES = ("datetime.now", "datetime.utcnow", "datetime.today")


def _is_sink(fn: FunctionInfo) -> bool:
    if fn.module in SINK_MODULES:
        return True
    return fn.cls is not None and fn.cls.rpartition(".")[2] in SINK_CLASSES


def _sink_reach(graph: CallGraph) -> dict[str, tuple[str, ...]]:
    """Functions that can reach a sink, each with a witness path *to* it."""
    sinks = [q for q, fn in graph.project.functions.items() if _is_sink(fn)]
    back = reachable_with_paths(graph.reversed_edges(), sinks)
    return {q: tuple(reversed(path)) for q, path in back.items()}


def _resolved_call(project: Project, fn: FunctionInfo, node: ast.Call) -> str | None:
    callee = dotted_name(node.func)
    if callee is None:
        return None
    return project.resolve(fn.module, callee) or callee


class DeterminismTaintRule(ProjectRule):
    """R011: clock reads / unseeded RNG on a path into record or policy code."""

    rule_id = "R011"
    summary = (
        "clock read or unseeded RNG flows into flight-recorder/audit/"
        "ledger/DynamicStrategy code"
    )
    fix_hint = (
        "take time from spans (repro.obs) and randomness from a seeded "
        "make_rng(seed); plumb values in as parameters instead of "
        "sampling on the decision path"
    )

    #: modules sanctioned to touch each source kind
    clock_exempt_prefixes = ("repro.obs",)
    rng_exempt_modules = ("repro.util.rng",)

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = get_callgraph(project)
        reach = _sink_reach(graph)
        for qualname, fn in sorted(project.functions.items()):
            path = reach.get(qualname)
            if path is None:
                continue
            for node, label in self._sources(project, fn):
                yield self.finding_at(
                    fn,
                    node,
                    f"{label} reaches determinism-sensitive code via "
                    f"{render_path(path)}",
                )

    def _sources(
        self, project: Project, fn: FunctionInfo
    ) -> Iterator[tuple[ast.Call, str]]:
        clock_ok = fn.module.startswith(self.clock_exempt_prefixes)
        rng_ok = fn.module in self.rng_exempt_modules
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolved_call(project, fn, node)
            if resolved is None:
                continue
            if not clock_ok and (
                resolved in _CLOCK_CALLS or resolved.endswith(_DATETIME_SUFFIXES)
            ):
                yield node, f"clock read {resolved}()"
            elif not rng_ok and resolved.startswith(("random.", "numpy.random.")):
                yield node, f"unseeded RNG call {resolved}()"
            elif self._unseeded_make_rng(project, resolved, node):
                yield node, "make_rng() without a seed (OS entropy)"

    @staticmethod
    def _unseeded_make_rng(project: Project, resolved: str, node: ast.Call) -> bool:
        canonical = project.canonicalize(resolved) or resolved
        if canonical.rpartition(".")[2] != "make_rng":
            return False
        if not node.args and not node.keywords:
            return True
        def _is_none(expr: ast.expr) -> bool:
            return isinstance(expr, ast.Constant) and expr.value is None
        if node.args:
            return _is_none(node.args[0])
        return any(kw.arg == "seed" and _is_none(kw.value) for kw in node.keywords)


#: reducers whose result does not depend on iteration order
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "sum", "min", "max", "any", "all", "len", "set", "frozenset"}
)


class OrderDependenceRule(ProjectRule):
    """R012: env reads / set-order iteration on a path into sinks."""

    rule_id = "R012"
    summary = (
        "os.environ read or set-order iteration feeds determinism-"
        "sensitive code"
    )
    fix_hint = (
        "read configuration once at a sanctioned entry point and pass it "
        "down; iterate sets as sorted(s) so replay order is stable"
    )

    env_exempt_modules = ("repro.util.logging", "repro.sanitize.hooks")

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = get_callgraph(project)
        reach = _sink_reach(graph)
        for qualname, fn in sorted(project.functions.items()):
            path = reach.get(qualname)
            if path is None:
                continue
            suffix = f" on a path to determinism-sensitive code via {render_path(path)}"
            if fn.module not in self.env_exempt_modules:
                for node in self._env_reads(project, fn):
                    yield self.finding_at(
                        fn, node, "environment read" + suffix
                    )
            for node in self._set_iterations(fn):
                yield self.finding_at(
                    fn,
                    node,
                    "iteration over a set (hash-salted order)" + suffix,
                )

    @staticmethod
    def _env_reads(project: Project, fn: FunctionInfo) -> Iterator[ast.expr]:
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Attribute):
                dn = dotted_name(node)
                if dn is None:
                    continue
                resolved = project.resolve(fn.module, dn) or dn
                if resolved.startswith("os.environ"):
                    yield node
            elif isinstance(node, ast.Call):
                resolved = _resolved_call(project, fn, node)
                if resolved == "os.getenv":
                    yield node

    def _set_iterations(self, fn: FunctionInfo) -> Iterator[ast.expr]:
        set_vars = self._set_typed_names(fn)
        parents: dict[int, ast.AST] = {}
        for parent in ast.walk(fn.node):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent
        for node in ast.walk(fn.node):
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if self._in_order_insensitive_call(node, parents):
                    continue
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if self._is_set_expr(it, set_vars):
                    yield it

    @staticmethod
    def _in_order_insensitive_call(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
        parent = parents.get(id(node))
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE
            and node in parent.args
        )

    @staticmethod
    def _set_typed_names(fn: FunctionInfo) -> set[str]:
        """Names annotated ``set``/``frozenset`` (params and locals)."""
        out: set[str] = set()

        def ann_is_set(ann: ast.expr | None) -> bool:
            if ann is None:
                return False
            target = ann.value if isinstance(ann, ast.Subscript) else ann
            return isinstance(target, ast.Name) and target.id in (
                "set",
                "frozenset",
                "Set",
                "FrozenSet",
                "AbstractSet",
            )

        args = fn.node.args
        for p in args.posonlyargs + args.args + args.kwonlyargs:
            if ann_is_set(p.annotation):
                out.add(p.arg)
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and ann_is_set(node.annotation)
            ):
                out.add(node.target.id)
        return out

    def _is_set_expr(self, node: ast.expr, set_vars: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name):
            return node.id in set_vars
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_vars) or self._is_set_expr(
                node.right, set_vars
            )
        return False
