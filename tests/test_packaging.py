"""API-integrity tests: every public package exports what it promises,
and every callable the repository benchmark's tracer wraps by name
exists."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.util",
    "repro.topology",
    "repro.mpisim",
    "repro.grid",
    "repro.tree",
    "repro.analysis",
    "repro.wrf",
    "repro.perfmodel",
    "repro.core",
    "repro.experiments",
    "repro.trace",
    "repro.viz",
]


class TestPublicAPI:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_importable(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", [p for p in PACKAGES if p != "repro"])
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), f"{name} lacks __all__"
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", [p for p in PACKAGES if p != "repro"])
    def test_all_entries_unique(self, name):
        module = importlib.import_module(name)
        assert len(module.__all__) == len(set(module.__all__)), (
            f"duplicate __all__ entries in {name}"
        )

    def test_version(self):
        import repro

        assert repro.__version__

    def test_cli_entrypoint_importable(self):
        from repro.cli import main  # noqa: F401

    @pytest.mark.parametrize("name", [p for p in PACKAGES if p != "repro"])
    def test_public_symbols_documented(self, name):
        """Every exported class/function carries a docstring."""
        module = importlib.import_module(name)
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


#: the repository benchmark's workloads, which name the layers' callables
PERFBENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def perfbench_targets():
    """Every ``Target(path, ..., sites=...)`` of the benchmark, as
    ``(path, sites)``.  The module is parsed, not imported: perfbench's
    modules import their siblings by bare name."""
    tree = ast.parse(PERFBENCH_WORKLOADS.read_text(encoding="utf-8"))
    targets = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target"):
            continue
        keywords = {k.arg: ast.literal_eval(k.value) for k in node.keywords}
        targets.append((ast.literal_eval(node.args[0]), tuple(keywords.get("sites", ()))))
    return targets


class TestPerfbenchTargets:
    """The tracer wraps each target the way this test resolves it: a
    method through its class's ``__dict__``, a function at each of its
    ``sites`` as the very same object.  A renamed or moved target fails
    here, in tier-1, and not only in the benchmark's own smoke run."""

    def test_every_target_resolves(self):
        targets = perfbench_targets()
        assert len(targets) >= 30
        unresolved = []
        for path, sites in targets:
            module_name, _, qualname = path.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, meth = qualname.split(".", 1)
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in cls.__dict__:
                    unresolved.append(path)
                continue
            original = getattr(module, qualname, None)
            if original is None or any(
                importlib.import_module(site).__dict__.get(qualname) is not original
                for site in sites
            ):
                unresolved.append(path)
        assert unresolved == []
