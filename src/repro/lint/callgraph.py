"""Conservative syntactic call graph over a :class:`~repro.lint.project.Project`.

Edges connect function qualnames.  Resolution handles the shapes the
codebase actually uses:

* plain calls through import aliases (``plan_redistribution(...)``,
  ``edit.diffusion_edit(...)``), following ``__init__`` re-exports;
* constructor calls (edge to ``Cls.__init__`` when defined);
* method calls on ``self``, on parameters/locals whose class is known
  from annotations or constructor assignments, and on ``self.attr``
  via the owning class's inferred attribute types;
* dynamic dispatch: a call through a base class or ``Protocol`` adds
  edges to every override / structural implementor, so reachability
  passes never miss the concrete strategy behind an abstract surface;
* ``functools.partial(f, ...)`` (edge to ``f`` — the partial's eventual
  call site is untracked, so the binding site pays for it).

Anything unresolvable is silently dropped: the graph under-approximates
calls into external code and over-approximates dispatch inside the
project, which is the right bias for taint-style "could this reach a
recorder?" questions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.project import FunctionInfo, Project, _annotation_names
from repro.lint.astutil import dotted_name

__all__ = ["CallGraph", "build_callgraph", "get_callgraph"]


@dataclass
class CallGraph:
    """Directed edges between function qualnames (caller -> called)."""

    project: Project
    edges: dict[str, set[str]] = field(default_factory=dict)

    def add(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)

    def callers(self, qualname: str) -> set[str]:
        return {src for src, dsts in self.edges.items() if qualname in dsts}

    def reversed_edges(self) -> dict[str, set[str]]:
        rev: dict[str, set[str]] = {}
        for src, dsts in self.edges.items():
            for dst in dsts:
                rev.setdefault(dst, set()).add(src)
        return rev


def _param_types(project: Project, fn: FunctionInfo) -> dict[str, str]:
    """Parameter name -> class qualname, from annotations."""
    out: dict[str, str] = {}
    args = fn.node.args
    for p in args.posonlyargs + args.args + args.kwonlyargs:
        for name in _annotation_names(p.annotation):
            resolved = project.resolve_class(fn.module, name)
            if resolved is not None:
                out[p.arg] = resolved
                break
    return out


class _FunctionScanner(ast.NodeVisitor):
    """Collect edges for one function body."""

    def __init__(self, graph: CallGraph, fn: FunctionInfo) -> None:
        self.graph = graph
        self.project = graph.project
        self.fn = fn
        self.env: dict[str, str] = _param_types(graph.project, fn)
        if fn.cls is not None:
            self.env.setdefault("self", fn.cls)
            self.env.setdefault("cls", fn.cls)

    # -- local type tracking ----------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._track_assignment(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            for name in _annotation_names(node.annotation):
                resolved = self.project.resolve_class(self.fn.module, name)
                if resolved is not None:
                    self.env[node.target.id] = resolved
                    break
        self.generic_visit(node)

    def _track_assignment(
        self, targets: list[ast.expr], value: ast.expr | None
    ) -> None:
        if not isinstance(value, ast.Call):
            return
        callee = dotted_name(value.func)
        if callee is None:
            return
        resolved = self.project.canonicalize(
            self.project.resolve(self.fn.module, callee)
        )
        if resolved not in self.project.classes:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = resolved

    # -- call edges --------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._edge_for_call(node)
        self.generic_visit(node)

    def _edge_for_call(self, node: ast.Call) -> None:
        callee = dotted_name(node.func)
        if callee is None:
            return
        # functools.partial(f, ...): bind an edge to f at the partial site
        resolved_callee = self.project.resolve(self.fn.module, callee)
        if callee in ("functools.partial", "partial") and node.args:
            inner = dotted_name(node.args[0])
            if inner is not None:
                self._edge_for_name(inner)
            return
        if resolved_callee is not None:
            target = self.project.canonicalize(resolved_callee)
            if target is not None:
                self._edge_to_definition(target)
                return
        # method call on a typed expression
        head, _, rest = callee.partition(".")
        if rest and head in self.env:
            self._edge_for_typed_chain(self.env[head], rest)

    def _edge_for_name(self, dotted: str) -> None:
        target = self.project.canonicalize(
            self.project.resolve(self.fn.module, dotted)
        )
        if target is not None:
            self._edge_to_definition(target)
        else:
            head, _, rest = dotted.partition(".")
            if rest and head in self.env:
                self._edge_for_typed_chain(self.env[head], rest)

    def _edge_to_definition(self, qualname: str) -> None:
        if qualname in self.project.functions:
            self.graph.add(self.fn.qualname, qualname)
        elif qualname in self.project.classes:
            init = self.project.lookup_method(qualname, "__init__")
            if init is not None:
                self.graph.add(self.fn.qualname, init.qualname)

    def _edge_for_typed_chain(self, class_qualname: str, rest: str) -> None:
        """Resolve ``<obj of class>.a.b.meth()`` through attribute types."""
        parts = rest.split(".")
        current = class_qualname
        for attr in parts[:-1]:
            cls = self.project.classes.get(current)
            if cls is None or attr not in cls.attr_types:
                return
            resolved = self.project.resolve_class(cls.module, cls.attr_types[attr])
            if resolved is None:
                return
            current = resolved
        self._edge_for_method(current, parts[-1])

    def _edge_for_method(self, class_qualname: str, method: str) -> None:
        targets: list[FunctionInfo] = []
        defined = self.project.lookup_method(class_qualname, method)
        if defined is not None:
            targets.append(defined)
        # dynamic dispatch: overrides in subclasses of the static type
        for sub in self.project.subclasses(class_qualname):
            sub_cls = self.project.classes.get(sub)
            if sub_cls is not None and method in sub_cls.methods:
                targets.append(sub_cls.methods[method])
        # structural dispatch through Protocols
        for impl in self.project.protocol_implementors(class_qualname):
            impl_fn = self.project.lookup_method(impl, method)
            if impl_fn is not None:
                targets.append(impl_fn)
        for t in targets:
            self.graph.add(self.fn.qualname, t.qualname)


def build_callgraph(project: Project) -> CallGraph:
    """Scan every function in the project and connect the edges."""
    graph = CallGraph(project)
    for fn in project.functions.values():
        scanner = _FunctionScanner(graph, fn)
        for stmt in fn.node.body:
            scanner.visit(stmt)
    return graph


def get_callgraph(project: Project) -> CallGraph:
    """The project's call graph, built once and cached on the project.

    Every interprocedural rule calls this, so a four-rule run still
    scans each function body exactly once.
    """
    cached = getattr(project, "_callgraph_cache", None)
    if cached is None:
        cached = build_callgraph(project)
        project._callgraph_cache = cached
    return cached
