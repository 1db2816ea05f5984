"""R016: a public definition that no shipped code names.

Everything the repository ships runs from the ``repro`` package and the
scripts beside its ``src/`` directory: ``benchmarks/`` (the paper's
tables and figures), ``examples/`` and ``perfbench/``.  A public
function, class or method that none of that code names is surface only
the tests exercise, and it drifts away from the pipeline it claims to be
part of.  Shipped code is the linted project plus every other ``.py``
file under ``src/`` and those three directories, so linting one package
does not flag what its siblings use; ``tests/`` and ``test_*.py`` files
never count.  A ``repro`` module read from a file outside such a
repository (a copy under ``lib/``, an installed wheel) is not judged:
the code that names its definitions is out of sight.

A subject counts as used when its bare name appears in shipped code as a
``Name``, as an ``Attribute``, as a string constant equal to the name
(outside ``__all__``; this covers ``getattr`` dispatch) or as a segment
of a ``"module:qualname"`` string (the perfbench tracer's bound names).
Names are matched without resolution, so a dead method that shares its
name with a live one elsewhere is not flagged; in exchange the rule never
fires on dynamic dispatch, which the call graph cannot type (the engine
calls every rule's ``check`` through ``self.rules``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.lint.project import Project
from repro.lint.rules.base import Finding, ProjectRule

__all__ = ["UnusedDefinitionRule"]

#: directories under the repository root whose files are shipped code
_ROOT_DIRS = ("src", "benchmarks", "examples", "perfbench")


def _is_test(path: Path) -> bool:
    return path.name.startswith("test_") or "tests" in path.parts


def _is_dotted(text: str) -> bool:
    return all(part.isidentifier() for part in text.split("."))


def _names_in(tree: ast.Module) -> set[str]:
    """Every bare name ``tree`` uses, in the forms the rule counts."""
    in_all: set[int] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        else:
            continue
        if stmt.value is not None and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            in_all.update(id(sub) for sub in ast.walk(stmt.value))
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in in_all
        ):
            text = node.value
            if text.isidentifier():
                out.add(text)
            else:
                module, colon, qualname = text.partition(":")
                if colon and _is_dotted(module) and _is_dotted(qualname):
                    out.update(qualname.split("."))
    return out


def _src_root(path: str, module: str) -> Path | None:
    """The directory holding ``src/`` for a module read from a file."""
    file = Path(path)
    if not file.is_file():
        return None  # an in-memory source
    parts = file.resolve().parts
    depth = len(module.split(".")) + (file.name == "__init__.py")
    if len(parts) <= depth:
        return None
    src = Path(*parts[: len(parts) - depth])
    return src.parent if src.name == "src" else None


def _root_files(project: Project) -> Iterator[Path]:
    """The shipped files of every repository the project was read from."""
    roots = {
        root
        for mod in project.modules.values()
        if mod.name.split(".")[0] == "repro"
        and (root := _src_root(mod.path, mod.name)) is not None
    }
    for root in sorted(roots):
        for name in _ROOT_DIRS:
            for file in sorted((root / name).rglob("*.py")):
                if not _is_test(file.relative_to(root)):
                    yield file


def _subjects(project: Project) -> Iterable[tuple[str, ast.AST, str]]:
    """``(qualname, node, path)`` of every public repro definition."""
    for mod in sorted(project.modules.values(), key=lambda m: m.name):
        if mod.name.split(".")[0] != "repro":
            continue
        if Path(mod.path).is_file() and _src_root(mod.path, mod.name) is None:
            continue
        for fn in mod.functions.values():
            yield fn.qualname, fn.node, fn.path
        for cls in mod.classes.values():
            yield cls.qualname, cls.node, cls.path
            if cls.name.startswith("_"):
                continue
            for meth in cls.methods.values():
                if not meth.name.startswith("visit_"):
                    yield meth.qualname, meth.node, meth.path


class UnusedDefinitionRule(ProjectRule):
    """R016: public ``repro`` definitions must be named by shipped code."""

    rule_id = "R016"
    summary = (
        "a public function, class or method that no shipped code "
        "(src, benchmarks, examples, perfbench) names"
    )
    fix_hint = (
        "delete it with the tests that check only it, or call it from a "
        "shipped path; a kept specification takes "
        "'# reprolint: disable=R016 -- <reason>' on its def line"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        used: set[str] = set()
        seen: set[Path] = set()
        for mod in project.modules.values():
            if not _is_test(Path(mod.path)):
                used |= _names_in(mod.tree)
                seen.add(Path(mod.path).resolve())
        for file in _root_files(project):
            if file.resolve() not in seen:
                used |= _names_in(ast.parse(file.read_text(encoding="utf-8")))
        for qualname, node, path in _subjects(project):
            name = qualname.rpartition(".")[2]
            if name.startswith("_") or name.endswith("_reference") or name in used:
                continue
            yield Finding(
                path=path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule_id=self.rule_id,
                severity=self.severity,
                message=f"public definition {qualname} is named by no shipped code",
                fix_hint=self.fix_hint,
            )
