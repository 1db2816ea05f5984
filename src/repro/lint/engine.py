"""The ``reprolint`` engine: file discovery, suppression, rule dispatch.

The engine owns everything rules should not care about — walking
directories, parsing sources, deriving dotted module names from paths,
honouring per-line suppression comments — and hands each per-file rule a
ready-made :class:`~repro.lint.rules.base.LintContext`.  Whole-program
rules (:class:`~repro.lint.rules.base.ProjectRule`) instead receive one
:class:`~repro.lint.project.Project` built from every parsed file, so a
run parses each file exactly once no matter how many rules inspect it.

Suppression syntax (per line, comma-separated ids or ``all``)::

    t = plan.measured_time == 0.0  # reprolint: disable=R002
    risky()                        # reprolint: disable=R001,R005
    legacy()                       # repro: noqa=R001   (accepted alias)

A suppression on a decorated ``def``/``class`` line also covers the
decorator lines above it, since several rules attribute findings to the
decorator's location.
"""

from __future__ import annotations

import ast
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

from repro.lint.project import Project, build_project
from repro.lint.rules import ALL_RULES, Finding, LintContext, ProjectRule, Rule, Severity

__all__ = ["LintEngine", "LintReport", "lint_paths", "lint_source", "lint_sources"]

_SUPPRESS_RE = re.compile(
    r"#\s*(?:reprolint:\s*disable|repro:\s*noqa)=([A-Za-z0-9_,\s]+)"
)


@dataclass
class LintReport:
    """The outcome of one engine run."""

    findings: list[Finding]
    files_checked: int
    suppressed: int = 0
    rules_run: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule_id] = counts.get(f.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def _module_name(path: Path) -> str:
    """Derive ``repro.core.metrics`` from ``.../src/repro/core/metrics.py``."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "repro":
            return ".".join(parts[anchor:])
    return ".".join(parts[-1:]) if parts else str(path)


def _suppressions(source: str) -> dict[int, set[str]]:
    """line number -> rule ids disabled on that line (``{"all"}`` wildcard)."""
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            out.setdefault(tok.start[0], set()).update(ids)
    except tokenize.TokenError:
        # Syntactically broken file: keep whatever suppressions were read
        # before the break; the parse-error finding covers the rest.
        return out
    return out


def _extend_to_decorators(
    tree: ast.Module, suppressions: dict[int, set[str]]
) -> None:
    """A suppression on a decorated ``def`` line covers its decorators too.

    Rules such as R006 attribute findings to decorator lines, which sit
    *above* the ``def`` carrying the comment; without this the comment
    silently misses them (the off-by-one the satellite task names).
    """
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if not node.decorator_list:
            continue
        ids = suppressions.get(node.lineno)
        if not ids:
            continue
        first = min(d.lineno for d in node.decorator_list)
        for line in range(first, node.lineno):
            suppressions.setdefault(line, set()).update(ids)


@dataclass
class _ParsedFile:
    """One source file after the single upfront parse."""

    path: str
    module: str
    source: str
    tree: ast.Module | None
    error: Finding | None
    suppressions: dict[int, set[str]]
    is_package: bool = False


class LintEngine:
    """Runs a set of rules over files, sources, or directory trees."""

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        self.rules: list[Rule] = list(rules) if rules is not None else [c() for c in ALL_RULES]
        self.file_rules = [r for r in self.rules if not isinstance(r, ProjectRule)]
        self.project_rules = [r for r in self.rules if isinstance(r, ProjectRule)]

    # -- parsing -----------------------------------------------------------

    def _parse(
        self, source: str, *, path: str, module: str | None, is_package: bool = False
    ) -> _ParsedFile:
        mod = module if module is not None else _module_name(Path(path))
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            error = Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule_id="R000",
                severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}",
                fix_hint="fix the syntax error before linting",
            )
            return _ParsedFile(path, mod, source, None, error, {}, is_package)
        suppressions = _suppressions(source)
        _extend_to_decorators(tree, suppressions)
        return _ParsedFile(
            path,
            mod,
            source,
            tree,
            None,
            suppressions,
            is_package or path.endswith("__init__.py"),
        )

    # -- rule dispatch -----------------------------------------------------

    def _run_parsed(
        self, parsed: list[_ParsedFile]
    ) -> tuple[list[Finding], int]:
        findings: list[Finding] = []
        suppressed = 0
        by_path = {p.path: p.suppressions for p in parsed}

        def admit(finding: Finding) -> None:
            nonlocal suppressed
            on_line = by_path.get(finding.path, {}).get(finding.line, set())
            if "all" in on_line or finding.rule_id in on_line:
                suppressed += 1
            else:
                findings.append(finding)

        for pf in parsed:
            if pf.error is not None:
                findings.append(pf.error)
                continue
            assert pf.tree is not None
            ctx = LintContext(
                path=pf.path, module=pf.module, tree=pf.tree, source=pf.source
            )
            for rule in self.file_rules:
                for finding in rule.check(ctx):
                    admit(finding)
        if self.project_rules:
            project = self._build_project(parsed)
            for rule in self.project_rules:
                for finding in rule.check_project(project):
                    admit(finding)
        return findings, suppressed

    @staticmethod
    def _build_project(parsed: list[_ParsedFile]) -> Project:
        records = [
            (pf.module, pf.path, pf.tree, pf.source)
            for pf in parsed
            if pf.tree is not None
        ]
        return build_project(records)  # type: ignore[arg-type]

    # -- entry points ------------------------------------------------------

    def check_source(
        self, source: str, *, path: str = "<string>", module: str | None = None
    ) -> LintReport:
        """Lint one in-memory module (the unit-test entry point)."""
        parsed = self._parse(source, path=path, module=module)
        findings, suppressed = self._run_parsed([parsed])
        return LintReport(
            findings=sorted(findings),
            files_checked=1,
            suppressed=suppressed,
            rules_run=[r.rule_id for r in self.rules],
        )

    def check_sources(self, sources: dict[str, str]) -> LintReport:
        """Lint several in-memory modules as one project.

        Keys are dotted module names; a key ending in ``.__init__`` marks
        a package (the suffix is stripped).  Parents of any module are
        treated as packages so relative imports resolve.
        """
        packages: set[str] = set()
        names: list[tuple[str, str]] = []
        for module, source in sources.items():
            name = module
            if module.endswith(".__init__"):
                name = module.removesuffix(".__init__")
                packages.add(name)
            names.append((name, source))
        for name, _ in names:
            parent = name.rpartition(".")[0]
            if parent:
                packages.add(parent)
        parsed = [
            self._parse(
                source,
                path=f"<{name}>",
                module=name,
                is_package=name in packages,
            )
            for name, source in names
        ]
        findings, suppressed = self._run_parsed(parsed)
        return LintReport(
            findings=sorted(findings),
            files_checked=len(parsed),
            suppressed=suppressed,
            rules_run=[r.rule_id for r in self.rules],
        )

    def run(
        self,
        paths: Iterable[str | Path],
        *,
        only: Iterable[str | Path] | None = None,
    ) -> LintReport:
        """Lint every ``.py`` file under the given files/directories.

        ``only`` restricts *reported* findings to the given files while
        still parsing and analysing everything in ``paths`` — the
        ``--changed`` mode, where whole-program rules need full project
        context but the report should cover just the diff.
        """
        parsed: list[_ParsedFile] = []
        for file in _iter_python_files(paths):
            source = file.read_text(encoding="utf-8")
            parsed.append(self._parse(source, path=str(file), module=None))
        findings, suppressed = self._run_parsed(parsed)
        if only is not None:
            keep = {str(Path(p).resolve()) for p in only}
            findings = [
                f for f in findings if str(Path(f.path).resolve()) in keep
            ]
        return LintReport(
            findings=sorted(findings),
            files_checked=len(parsed),
            suppressed=suppressed,
            rules_run=[r.rule_id for r in self.rules],
        )


def _iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        else:
            candidates = []
        for file in candidates:
            if file not in seen:
                seen.add(file)
                yield file


def lint_paths(
    paths: Iterable[str | Path],
    *,
    select: list[str] | None = None,
    only: Iterable[str | Path] | None = None,
) -> LintReport:
    """Convenience wrapper: lint paths with all (or selected) rules."""
    from repro.lint.rules import get_rules

    return LintEngine(get_rules(select)).run(paths, only=only)


def lint_source(  # reprolint: disable=R016 -- in-memory entry point the reprolint self-tests feed fixtures through
    source: str,
    *,
    module: str = "repro.snippet",
    select: list[str] | None = None,
) -> LintReport:
    """Convenience wrapper: lint one snippet (used heavily by the tests)."""
    from repro.lint.rules import get_rules

    return LintEngine(get_rules(select)).check_source(
        source, path=f"<{module}>", module=module
    )


def lint_sources(  # reprolint: disable=R016 -- in-memory entry point the reprolint self-tests feed fixtures through
    sources: dict[str, str],
    *,
    select: list[str] | None = None,
) -> LintReport:
    """Convenience wrapper: lint a dict of modules as one project."""
    from repro.lint.rules import get_rules

    return LintEngine(get_rules(select)).check_sources(sources)
