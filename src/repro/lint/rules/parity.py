"""R014: kernel parity between ``*reference*`` oracles and vector twins.

Every performance-critical kernel keeps a scalar *reference* oracle (the
readable ground truth) beside the shipped implementation, and the
equivalence suite checks the two bit-for-bit.  The oracles are test-only
specifications: shipped code never runs them.  Two properties keep that
honest:

* **Twins evolve together.**  Where an oracle has a name-paired twin
  (``_endpoint_overhead_reference`` ↔ ``_endpoint_overhead_vector``,
  resolved through the project symbol table), the pair must share one
  parameter list (a new knob must reach both) and branch on the same
  parameters (a kwarg branch on one side means the twins no longer
  compute the same function family).  A ``*vector*`` kernel without its
  oracle is flagged too.
* **Oracles stay off shipped paths.**  Only another ``*reference*``
  function may call a ``*reference*`` function; tests call them
  directly.  A shipped caller would both pay the scalar cost in
  production and stop the oracle from being an independent check.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.callgraph import get_callgraph
from repro.lint.project import FunctionInfo, Project
from repro.lint.rules.base import Finding, ProjectRule

__all__ = ["KernelParityRule"]


def _param_names(fn: FunctionInfo) -> list[str]:
    return fn.params


def _branch_params(fn: FunctionInfo) -> set[str]:
    """Parameters whose value is branched on inside the function body."""
    params = {p.lstrip("*") for p in fn.params if p not in ("self", "cls")}
    out: set[str] = set()
    for node in ast.walk(fn.node):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        for name in ast.walk(node.test):
            if isinstance(name, ast.Name) and name.id in params:
                out.add(name.id)
    return out


class KernelParityRule(ProjectRule):
    """R014: oracle/vector kernel pairs must not drift apart."""

    rule_id = "R014"
    summary = (
        "a *reference* oracle and its vector twin differ in parameters or "
        "kwarg branches, or shipped code calls an oracle"
    )
    fix_hint = (
        "mirror the change on both kernels (and extend the bit-for-bit "
        "parity test); call oracles only from tests or other oracles"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = get_callgraph(project)
        for qualname, fn in sorted(project.functions.items()):
            if "reference" not in fn.name:
                continue
            twin = self._twin(project, fn, "reference", "vector")
            if twin is not None:
                yield from self._check_pair(fn, twin)
            yield from self._check_callers(project, graph, fn)
        # symmetric orphan check: a *vector* kernel without its oracle
        for qualname, fn in sorted(project.functions.items()):
            if "vector" not in fn.name:
                continue
            if self._twin(project, fn, "vector", "reference") is None:
                yield self.finding_at(
                    fn,
                    fn.node,
                    f"vector kernel {fn.name} has no *reference* oracle "
                    "twin in the same scope",
                )

    @staticmethod
    def _twin(
        project: Project, fn: FunctionInfo, old: str, new: str
    ) -> FunctionInfo | None:
        twin_name = fn.name.replace(old, new)
        if fn.cls is not None:
            cls = project.classes.get(fn.cls)
            if cls is not None:
                return cls.methods.get(twin_name)
            return None
        mod = project.modules.get(fn.module)
        if mod is not None:
            return mod.functions.get(twin_name)
        return None

    def _check_pair(self, fn: FunctionInfo, twin: FunctionInfo) -> Iterator[Finding]:
        ref_params = _param_names(fn)
        vec_params = _param_names(twin)
        if ref_params != vec_params:
            yield self.finding_at(
                fn,
                fn.node,
                f"{fn.name} takes {ref_params} but {twin.name} takes "
                f"{vec_params}; the twins must share one signature",
            )
        ref_branches = _branch_params(fn)
        vec_branches = _branch_params(twin)
        if ref_branches != vec_branches:
            only_ref = sorted(ref_branches - vec_branches)
            only_vec = sorted(vec_branches - ref_branches)
            yield self.finding_at(
                fn,
                fn.node,
                f"kwarg branches differ between {fn.name} "
                f"(extra: {only_ref}) and {twin.name} (extra: {only_vec})",
            )

    def _check_callers(
        self, project: Project, graph, fn: FunctionInfo
    ) -> Iterator[Finding]:
        for caller_q in sorted(graph.callers(fn.qualname)):
            caller = project.functions.get(caller_q)
            if caller is None or "reference" in caller.name:
                continue  # oracle helpers composing is fine
            yield self.finding_at(
                caller,
                caller.node,
                f"shipped function {caller.name} calls oracle {fn.name}; "
                "*reference* functions are test-only specifications, "
                "callable only from tests and other *reference* functions",
            )
