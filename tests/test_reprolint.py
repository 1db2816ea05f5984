"""Tests for the ``reprolint`` static-analysis subsystem.

Two layers:

* fixture-based unit tests per rule — each rule gets at least one snippet
  that must fire and one that must stay clean;
* the self-test — the engine over the real ``src/`` tree must report zero
  findings (the repo's own code obeys its own lint).
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    ALL_RULES,
    LintEngine,
    Severity,
    format_json,
    format_rule_table,
    format_text,
    get_rules,
    lint_paths,
    lint_source,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def findings_for(source, module="repro.core.snippet", select=None):
    report = lint_source(textwrap.dedent(source), module=module, select=select)
    return report.findings


def rule_ids(source, module="repro.core.snippet", select=None):
    return sorted({f.rule_id for f in findings_for(source, module, select)})


# ---------------------------------------------------------------------------
# R001 — unseeded randomness
# ---------------------------------------------------------------------------


class TestR001Randomness:
    def test_np_random_call_flagged(self):
        src = """
        import numpy as np
        def f():
            return np.random.default_rng(0)
        """
        assert "R001" in rule_ids(src, select=["R001"])

    def test_stdlib_random_import_flagged(self):
        assert "R001" in rule_ids("import random\n", select=["R001"])

    def test_from_random_import_flagged(self):
        assert "R001" in rule_ids("from random import shuffle\n", select=["R001"])

    def test_stdlib_random_call_flagged(self):
        src = """
        def f(random):
            return random.random()
        """
        assert "R001" in rule_ids(src, select=["R001"])

    def test_make_rng_clean(self):
        src = """
        from repro.util.rng import make_rng
        def f(seed):
            return make_rng(seed).normal()
        """
        assert rule_ids(src, select=["R001"]) == []

    def test_generator_annotation_clean(self):
        src = """
        import numpy as np
        def f(rng: np.random.Generator) -> np.random.Generator:
            if isinstance(rng, np.random.Generator):
                return rng
            return rng
        """
        assert rule_ids(src, select=["R001"]) == []

    def test_rng_module_exempt(self):
        src = """
        import numpy as np
        def make_rng(seed):
            return np.random.default_rng(seed)
        """
        assert rule_ids(src, module="repro.util.rng", select=["R001"]) == []


# ---------------------------------------------------------------------------
# R002 — float equality in cost paths
# ---------------------------------------------------------------------------


class TestR002FloatEquality:
    def test_float_literal_flagged(self):
        src = """
        def f(t):
            return t == 0.0
        """
        assert "R002" in rule_ids(src, select=["R002"])

    def test_annotated_param_flagged(self):
        src = """
        def f(t: float):
            return t != 0
        """
        assert "R002" in rule_ids(src, select=["R002"])

    def test_float_call_binding_flagged(self):
        src = """
        def f(values):
            total = float(sum(values))
            if total == 0:
                return None
            return total
        """
        assert "R002" in rule_ids(src, select=["R002"])

    def test_self_attr_with_class_annotation_flagged(self):
        src = """
        class Oracle:
            sigma: float = 0.0
            def f(self):
                return self.sigma == 0
        """
        assert "R002" in rule_ids(src, select=["R002"])

    def test_int_comparison_clean(self):
        src = """
        def f(n: int, items):
            return n == 0 or len(items) == 3
        """
        assert rule_ids(src, select=["R002"]) == []

    def test_ordered_float_comparison_clean(self):
        src = """
        def f(t: float):
            return t <= 0.0
        """
        assert rule_ids(src, select=["R002"]) == []

    def test_outside_scoped_packages_clean(self):
        src = """
        def f(t: float):
            return t == 0.0
        """
        assert rule_ids(src, module="repro.viz.snippet", select=["R002"]) == []

    def test_each_scope_reported_once(self):
        src = """
        def f(t: float):
            def g():
                return t == 1.0
            return g
        """
        assert len(findings_for(src, select=["R002"])) == 1


# ---------------------------------------------------------------------------
# R003 — allocation mutation outside core/grid
# ---------------------------------------------------------------------------


class TestR003Mutation:
    def test_rects_subscript_store_flagged(self):
        src = """
        def f(alloc, rect):
            alloc.rects[1] = rect
        """
        assert "R003" in rule_ids(src, module="repro.wrf.snippet", select=["R003"])

    def test_rects_attribute_store_flagged(self):
        src = """
        def f(alloc):
            alloc.rects = {}
        """
        assert "R003" in rule_ids(src, module="repro.wrf.snippet", select=["R003"])

    def test_rects_mutating_call_flagged(self):
        src = """
        def f(alloc, other):
            alloc.rects.update(other)
        """
        assert "R003" in rule_ids(src, module="repro.wrf.snippet", select=["R003"])

    def test_rect_field_store_flagged(self):
        src = """
        def f(rect):
            rect.x0 = 3
        """
        assert "R003" in rule_ids(src, module="repro.wrf.snippet", select=["R003"])

    def test_object_setattr_bypass_flagged(self):
        src = """
        def f(alloc, rects):
            object.__setattr__(alloc, "rects", rects)
        """
        assert "R003" in rule_ids(src, module="repro.wrf.snippet", select=["R003"])

    def test_del_rects_entry_flagged(self):
        src = """
        def f(alloc):
            del alloc.rects[1]
        """
        assert "R003" in rule_ids(src, module="repro.wrf.snippet", select=["R003"])

    def test_read_access_clean(self):
        src = """
        def f(alloc):
            return alloc.rects[1].area + alloc.rects[2].w
        """
        assert rule_ids(src, module="repro.wrf.snippet", select=["R003"]) == []

    def test_core_package_exempt(self):
        src = """
        def f(alloc, rect):
            alloc.rects[1] = rect
        """
        assert rule_ids(src, module="repro.core.snippet", select=["R003"]) == []

    def test_unrelated_w_attribute_clean(self):
        src = """
        def f(widget):
            widget.w = 3
        """
        assert rule_ids(src, module="repro.wrf.snippet", select=["R003"]) == []


# ---------------------------------------------------------------------------
# R004 — validation coverage in core/tree/analysis
# ---------------------------------------------------------------------------


class TestR004Validation:
    def test_unvalidated_public_function_flagged(self):
        src = """
        def combine(weights, sizes):
            a = dict(weights)
            b = dict(sizes)
            merged = {**a, **b}
            return merged
        """
        assert "R004" in rule_ids(src, select=["R004"])

    def test_check_call_passes(self):
        src = """
        from repro.util.validation import check_positive
        def scale(x, factor):
            check_positive("factor", factor)
            y = x * factor
            z = y + 1
            return z
        """
        assert rule_ids(src, select=["R004"]) == []

    def test_inline_raise_passes(self):
        src = """
        def scale(x, factor):
            if factor <= 0:
                raise ValueError("factor must be positive")
            y = x * factor
            return y
        """
        assert rule_ids(src, select=["R004"]) == []

    def test_validation_docstring_passes(self):
        src = '''
        def render(allocation, width):
            """Draw the allocation.

            Validation: allocation is a frozen, already-validated object.
            """
            x = allocation
            y = width
            return (x, y)
        '''
        assert rule_ids(src, select=["R004"]) == []

    def test_private_function_exempt(self):
        src = """
        def _helper(a, b):
            c = a + b
            d = c * 2
            return d
        """
        assert rule_ids(src, select=["R004"]) == []

    def test_trivial_delegation_exempt(self):
        src = """
        def wrap(x):
            return inner(x)
        """
        assert rule_ids(src, select=["R004"]) == []

    def test_property_exempt(self):
        src = """
        class C:
            @property
            def area(self, *extra):
                a = 1
                b = 2
                return a + b
        """
        assert rule_ids(src, select=["R004"]) == []

    def test_outside_scoped_packages_exempt(self):
        src = """
        def combine(weights, sizes):
            a = dict(weights)
            b = dict(sizes)
            merged = {**a, **b}
            return merged
        """
        assert rule_ids(src, module="repro.experiments.snippet", select=["R004"]) == []


# ---------------------------------------------------------------------------
# R005 — exception hygiene
# ---------------------------------------------------------------------------


class TestR005Exceptions:
    def test_bare_except_flagged(self):
        src = """
        def f():
            try:
                g()
            except:
                pass
        """
        assert "R005" in rule_ids(src, select=["R005"])

    def test_swallowed_invariant_violation_flagged(self):
        src = """
        def f():
            try:
                g()
            except InvariantViolation:
                pass
        """
        assert "R005" in rule_ids(src, select=["R005"])

    def test_swallowed_broad_exception_flagged(self):
        src = """
        def f():
            try:
                g()
            except Exception:
                result = None
        """
        assert "R005" in rule_ids(src, select=["R005"])

    def test_reraise_clean(self):
        src = """
        def f():
            try:
                g()
            except InvariantViolation as exc:
                raise RuntimeError("invariant broke") from exc
        """
        assert rule_ids(src, select=["R005"]) == []

    def test_logging_handler_clean(self):
        src = """
        def f(log):
            try:
                g()
            except Exception as exc:
                log.warning("step failed: %s", exc)
        """
        assert rule_ids(src, select=["R005"]) == []

    def test_precise_exception_clean(self):
        src = """
        def f(d):
            try:
                return d["k"]
            except KeyError:
                return None
        """
        assert rule_ids(src, select=["R005"]) == []


# ---------------------------------------------------------------------------
# R006 — __all__ consistency
# ---------------------------------------------------------------------------


class TestR006Exports:
    def test_undefined_name_in_all_flagged(self):
        src = """
        __all__ = ["missing"]
        def present():
            return 1
        """
        findings = findings_for(src, select=["R006"])
        assert any("missing" in f.message for f in findings)

    def test_public_def_not_listed_flagged(self):
        src = """
        __all__ = ["listed"]
        def listed():
            return 1
        def leaked():
            return 2
        """
        findings = findings_for(src, select=["R006"])
        assert any("leaked" in f.message for f in findings)

    def test_missing_all_with_public_defs_flagged(self):
        src = """
        def public_thing():
            return 1
        """
        assert "R006" in rule_ids(src, select=["R006"])

    def test_consistent_module_clean(self):
        src = """
        __all__ = ["Thing", "make_thing"]
        class Thing:
            pass
        def make_thing():
            return Thing()
        def _private():
            return None
        """
        assert rule_ids(src, select=["R006"]) == []

    def test_reexport_via_import_clean(self):
        src = """
        from repro.grid.rect import Rect
        __all__ = ["Rect"]
        """
        assert rule_ids(src, select=["R006"]) == []

    def test_dynamic_all_ignored(self):
        src = """
        __all__ = [n for n in dir() if not n.startswith("_")]
        def public_thing():
            return 1
        """
        assert rule_ids(src, select=["R006"]) == []


# ---------------------------------------------------------------------------
# R007 — direct wall-clock reads
# ---------------------------------------------------------------------------


class TestR007Timing:
    def test_perf_counter_call_flagged(self):
        src = """
        import time
        def f():
            return time.perf_counter()
        """
        assert "R007" in rule_ids(src, select=["R007"])

    def test_time_time_call_flagged(self):
        src = """
        import time
        def f():
            return time.time()
        """
        assert "R007" in rule_ids(src, select=["R007"])

    def test_monotonic_ns_call_flagged(self):
        src = """
        import time
        def f():
            return time.monotonic_ns()
        """
        assert "R007" in rule_ids(src, select=["R007"])

    def test_from_time_import_clock_flagged(self):
        assert "R007" in rule_ids(
            "from time import perf_counter\n", select=["R007"]
        )

    def test_time_sleep_clean(self):
        src = """
        import time
        def f():
            time.sleep(0.1)
        """
        assert rule_ids(src, select=["R007"]) == []

    def test_from_time_import_sleep_clean(self):
        assert rule_ids("from time import sleep\n", select=["R007"]) == []

    def test_recorder_span_clean(self):
        src = """
        from repro.obs import get_recorder
        def f():
            with get_recorder().span("phase"):
                return 1
        """
        assert rule_ids(src, select=["R007"]) == []

    def test_obs_package_exempt(self):
        src = """
        import time
        def f():
            return time.perf_counter()
        """
        assert rule_ids(src, module="repro.obs.recorder", select=["R007"]) == []

    def test_obs_prefix_not_substring_matched(self):
        src = """
        import time
        def f():
            return time.perf_counter()
        """
        assert "R007" in rule_ids(src, module="repro.observatory", select=["R007"])


# ---------------------------------------------------------------------------
# R008 — bare print() outside the CLI/report layer
# ---------------------------------------------------------------------------


class TestR008Printing:
    def test_print_in_library_code_flagged(self):
        src = """
        def f(x):
            print("debug", x)
            return x
        """
        assert "R008" in rule_ids(src, select=["R008"])

    def test_print_at_module_level_flagged(self):
        assert "R008" in rule_ids('print("hello")\n', select=["R008"])

    def test_cli_module_exempt(self):
        src = 'print("usage: repro ...")\n'
        assert rule_ids(src, module="repro.cli", select=["R008"]) == []

    @pytest.mark.parametrize(
        "module",
        ["repro.obs.export", "repro.lint.reporting", "repro.experiments.report"],
    )
    def test_report_layer_exempt(self, module):
        assert rule_ids('print("x")\n', module=module, select=["R008"]) == []

    def test_exemption_is_exact_not_prefix(self):
        # a sibling of an exempt module must not inherit the exemption
        assert "R008" in rule_ids(
            'print("x")\n', module="repro.obs.export_helpers", select=["R008"]
        )
        assert "R008" in rule_ids(
            'print("x")\n', module="repro.cli_utils", select=["R008"]
        )

    def test_print_mentioned_in_docstring_clean(self):
        src = '''
        def f():
            """Render the table; the CLI may print(format_report(rec))."""
            return 1
        '''
        assert rule_ids(src, select=["R008"]) == []

    def test_shadowed_attribute_print_clean(self):
        src = """
        def f(logger):
            logger.print("not the builtin")
        """
        assert rule_ids(src, select=["R008"]) == []

    def test_returning_strings_clean(self):
        src = """
        def render(rows):
            return "\\n".join(str(r) for r in rows)
        """
        assert rule_ids(src, select=["R008"]) == []

    def test_line_suppression_works(self):
        src = """
        def f():
            print("intentional")  # reprolint: disable=R008
        """
        assert rule_ids(src, select=["R008"]) == []

    def test_noqa_alias_suppresses(self):
        src = """
        def f():
            print("intentional")  # repro: noqa=R008
        """
        assert rule_ids(src, select=["R008"]) == []

    def test_def_line_suppression_covers_decorators(self):
        # the finding anchors to the decorator's line, above the def; a
        # suppression written on the def line must still cover it
        src = """
        import numpy as np

        def deco(rng):
            def wrap(fn):
                return fn
            return wrap

        @deco(np.random.default_rng(0))
        def f():  # reprolint: disable=R001
            pass
        """
        assert rule_ids(src, select=["R001"]) == []

    def test_def_line_noqa_alias_covers_decorators(self):
        src = """
        import numpy as np

        def deco(rng):
            def wrap(fn):
                return fn
            return wrap

        @deco(np.random.default_rng(0))
        def f():  # repro: noqa=R001
            pass
        """
        assert rule_ids(src, select=["R001"]) == []

    def test_decorator_finding_fires_without_suppression(self):
        src = """
        import numpy as np

        def deco(rng):
            def wrap(fn):
                return fn
            return wrap

        @deco(np.random.default_rng(0))
        def f():
            pass
        """
        assert "R001" in rule_ids(src, select=["R001"])

    def test_def_line_suppression_covers_only_its_own_ids(self):
        src = """
        import numpy as np

        def deco(rng):
            def wrap(fn):
                return fn
            return wrap

        @deco(np.random.default_rng(0))
        def f():  # reprolint: disable=R008
            pass
        """
        assert "R001" in rule_ids(src, select=["R001"])


# ---------------------------------------------------------------------------
# engine mechanics: suppression, selection, parse errors, reporting
# ---------------------------------------------------------------------------


class TestR009Swallow:
    def test_pass_only_handler_flagged_even_for_narrow_exceptions(self):
        src = """
        def f():
            try:
                g()
            except ValueError:
                pass
        """
        assert "R009" in rule_ids(src, select=["R009"])

    def test_ellipsis_and_docstring_bodies_flagged(self):
        src = """
        def f():
            try:
                g()
            except KeyError:
                ...
            try:
                g()
            except OSError:
                \"\"\"ignored on purpose\"\"\"
        """
        assert len(findings_for(src, select=["R009"])) == 2

    def test_broad_suppress_flagged(self):
        src = """
        import contextlib
        def f():
            with contextlib.suppress(Exception):
                g()
        """
        findings = findings_for(src, select=["R009"])
        assert any("suppress" in f.message for f in findings)

    def test_bare_suppress_import_flagged(self):
        src = """
        from contextlib import suppress
        def f():
            with suppress(ValueError, BaseException):
                g()
        """
        assert "R009" in rule_ids(src, select=["R009"])

    def test_narrow_suppress_clean(self):
        src = """
        from contextlib import suppress
        def f(path):
            with suppress(FileNotFoundError):
                path.unlink()
        """
        assert rule_ids(src, select=["R009"]) == []

    def test_handler_that_acts_clean(self):
        src = """
        def f(log):
            try:
                g()
            except ValueError as exc:
                log.warning("skipping: %s", exc)
            try:
                g()
            except KeyError:
                return None
        """
        assert rule_ids(src, select=["R009"]) == []

    def test_faults_package_not_exempt(self):
        src = """
        def absorb():
            try:
                g()
            except ValueError:
                pass
        """
        assert "R009" in rule_ids(
            src, module="repro.faults.injector", select=["R009"]
        )


# ---------------------------------------------------------------------------
# R010 — per-message loops over MessageSet fields
# ---------------------------------------------------------------------------


class TestR010ScalarMessageLoops:
    def test_zip_loop_over_fields_flagged(self):
        src = """
        def add_messages(self, messages):
            for s, d, b in zip(messages.src, messages.dst, messages.nbytes):
                self.pair_bytes[(int(s), int(d))] = float(b)
        """
        assert "R010" in rule_ids(src, select=["R010"])

    def test_direct_field_iteration_flagged(self):
        src = """
        def total(messages):
            out = 0.0
            for b in messages.nbytes:
                out += float(b)
            return out
        """
        assert "R010" in rule_ids(src, select=["R010"])

    def test_comprehension_over_fields_flagged(self):
        src = """
        def routes(self, messages):
            return [self._route(int(s), int(d))
                    for s, d in zip(messages.src, messages.dst)]
        """
        assert "R010" in rule_ids(src, select=["R010"])

    def test_one_finding_per_loop_not_per_field(self):
        src = """
        def f(messages):
            for s, d, b in zip(messages.src, messages.dst, messages.nbytes):
                g(s, d, b)
        """
        assert len(findings_for(src, select=["R010"])) == 1

    def test_reference_oracle_exempt(self):
        src = """
        def _link_loads_reference(self, messages):
            loads = {}
            for s, b in zip(messages.src, messages.nbytes):
                loads[int(s)] = loads.get(int(s), 0.0) + float(b)
            return loads
        """
        assert rule_ids(src, select=["R010"]) == []

    def test_exemption_covers_nested_helpers(self):
        src = """
        def _routes_reference(self, messages):
            def inner():
                return [r for r in messages.src]
            return inner()
        """
        assert rule_ids(src, select=["R010"]) == []

    def test_vectorised_reduction_clean(self):
        src = """
        import numpy as np
        def link_loads(self, messages):
            keys = messages.src * self.nranks + messages.dst
            uniq, inv = np.unique(keys, return_inverse=True)
            return uniq, np.bincount(inv, weights=messages.nbytes)
        """
        assert rule_ids(src, select=["R010"]) == []

    def test_other_attributes_clean(self):
        src = """
        def overlap(plan):
            return [m.overlap_fraction for m in plan.moves]
        """
        assert rule_ids(src, select=["R010"]) == []


class TestR015FireAndForget:
    def test_bare_create_task_flagged(self):
        src = """
        import asyncio
        async def f():
            asyncio.create_task(work())
        """
        assert "R015" in rule_ids(src, select=["R015"])

    def test_ensure_future_flagged(self):
        src = """
        import asyncio
        async def f():
            asyncio.ensure_future(work())
        """
        assert "R015" in rule_ids(src, select=["R015"])

    def test_underscore_assignment_is_still_discarding(self):
        src = """
        import asyncio
        async def f():
            _ = asyncio.create_task(work())
        """
        assert "R015" in rule_ids(src, select=["R015"])

    def test_retained_task_clean(self):
        src = """
        import asyncio
        async def f(self):
            self.task = asyncio.create_task(work())
            pending = asyncio.create_task(more())
            await pending
        """
        assert rule_ids(src, select=["R015"]) == []

    def test_appended_to_registry_clean(self):
        src = """
        import asyncio
        async def f(tasks):
            tasks.append(asyncio.create_task(work()))
        """
        assert rule_ids(src, select=["R015"]) == []

    def test_supervised_roots_exempt(self):
        src = """
        import asyncio
        async def f():
            asyncio.create_task(work())
        """
        assert rule_ids(src, module="repro.serve.scheduler", select=["R015"]) == []

    def test_other_serve_modules_not_exempt(self):
        src = """
        import asyncio
        async def f():
            asyncio.create_task(work())
        """
        assert "R015" in rule_ids(src, module="repro.serve.api", select=["R015"])


# ---------------------------------------------------------------------------
# R016 — public definitions no shipped code names
# ---------------------------------------------------------------------------

#: a repository tree: src/repro, a perfbench/ script and test, and tests/
R016_TREE = {
    "src/repro/__init__.py": "",
    "src/repro/lib.py": """
        import ast

        __all__ = ["Engine", "Walker", "dispatched", "helper", "kept",
                   "listed_only", "orphan", "scan_reference"]

        def orphan():
            return 1

        def helper():
            return 9

        def listed_only():
            return 2

        def dispatched():
            return 3

        def scan_reference():
            return 4

        def kept():  # reprolint: disable=R016 -- the spec the tests hold
            return 5

        class Engine:
            def start(self):
                return 6

            def tested_only(self):
                return 7

            def traced(self):
                return 8

            def shadowed(self):
                return 10

        class Walker(ast.NodeVisitor):
            def visit_Call(self, node):
                self.generic_visit(node)
        """,
    "src/repro/app.py": """
        from repro import lib
        from repro.lib import helper

        __all__ = ["main"]

        def main():
            lib.Engine().start()
            lib.Walker()
            shadowed = helper()  # a local named like a method calls no method
            return getattr(lib, "dispatched")(), shadowed
        """,
    "perfbench/run.py": """
        from repro.app import main

        TARGET = "repro.lib:Engine.traced"
        main()
        """,
    "perfbench/test_run.py": """
        from repro.lib import Engine

        def test_engine():
            Engine().tested_only()
        """,
    "tests/test_lib.py": """
        from repro.lib import Engine, orphan

        def test_lib():
            assert orphan() == 1 and Engine().tested_only() == 7
        """,
}


class TestR016UnusedDefinitions:
    @staticmethod
    def _flagged(tmp_path, lint=("src/repro",), src="src"):
        for rel, text in R016_TREE.items():
            path = tmp_path / rel.replace("src/", f"{src}/", 1)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text))
        report = lint_paths([tmp_path / p for p in lint], select=["R016"])
        return {f.message.split()[2] for f in report.findings}

    def test_function_nothing_names_flagged(self, tmp_path):
        assert "repro.lib.orphan" in self._flagged(tmp_path)

    def test_method_only_tests_call_flagged(self, tmp_path):
        # tests/ and perfbench/test_*.py call it; neither is shipped code
        assert "repro.lib.Engine.tested_only" in self._flagged(tmp_path)

    def test_name_only_in_all_flagged(self, tmp_path):
        assert "repro.lib.listed_only" in self._flagged(tmp_path)

    def test_flags_exactly_the_dead_definitions(self, tmp_path):
        assert self._flagged(tmp_path) == {
            "repro.lib.orphan",
            "repro.lib.listed_only",
            "repro.lib.Engine.tested_only",
            "repro.lib.Engine.shadowed",
        }

    def test_attribute_use_in_another_module_clean(self, tmp_path):
        assert "repro.lib.Engine.start" not in self._flagged(tmp_path)

    def test_method_reached_only_by_bare_name_flagged(self, tmp_path):
        assert "repro.lib.Engine.shadowed" in self._flagged(tmp_path)

    def test_function_reached_by_bare_name_clean(self, tmp_path):
        assert "repro.lib.helper" not in self._flagged(tmp_path)

    def test_perfbench_tracer_string_clean(self, tmp_path):
        assert "repro.lib.Engine.traced" not in self._flagged(tmp_path)

    def test_getattr_string_clean(self, tmp_path):
        assert "repro.lib.dispatched" not in self._flagged(tmp_path)

    def test_visit_method_clean(self, tmp_path):
        assert "repro.lib.Walker.visit_Call" not in self._flagged(tmp_path)

    def test_reference_oracle_clean(self, tmp_path):
        assert "repro.lib.scan_reference" not in self._flagged(tmp_path)

    def test_suppressed_definition_clean(self, tmp_path):
        assert "repro.lib.kept" not in self._flagged(tmp_path)

    def test_linting_one_module_still_reads_its_siblings(self, tmp_path):
        flagged = self._flagged(tmp_path, lint=("src/repro/lib.py",))
        assert "repro.lib.Engine.start" not in flagged
        assert "repro.lib.orphan" in flagged

    def test_package_outside_a_checkout_not_judged(self, tmp_path):
        # no src/ above the package: perfbench/ is out of sight, so
        # Engine.traced would read as unused
        assert self._flagged(tmp_path, lint=("lib/repro",), src="lib") == set()


class TestSuppression:
    def test_line_suppression(self):
        src = """
        def f(t: float):
            return t == 0.0  # reprolint: disable=R002
        """
        report = lint_source(
            textwrap.dedent(src), module="repro.core.snippet", select=["R002"]
        )
        assert report.ok
        assert report.suppressed == 1

    def test_suppression_of_other_rule_does_not_hide(self):
        src = """
        def f(t: float):
            return t == 0.0  # reprolint: disable=R001
        """
        assert "R002" in rule_ids(src)

    def test_disable_all(self):
        src = """
        def f(t: float):
            return t == 0.0  # reprolint: disable=all
        """
        assert rule_ids(src, select=["R001", "R002"]) == []

    def test_multiple_ids(self):
        src = """
        import random  # reprolint: disable=R001,R006
        """
        assert rule_ids(src) == []

    def test_reason_after_a_plain_space_suppresses(self):
        src = """
        def f(t: float):
            return t == 0.0  # reprolint: disable=R002 exact sentinel
        """
        assert rule_ids(src, select=["R002"]) == []

    def test_reason_after_spaced_ids_suppresses_both(self):
        src = """
        import time
        def f(t: float):
            return t == time.time()  # reprolint: disable=R002, R007 reason
        """
        unsuppressed = src.replace("# reprolint: disable", "# no")
        assert rule_ids(unsuppressed, select=["R002", "R007"]) == ["R002", "R007"]
        assert rule_ids(src, select=["R002", "R007"]) == []

    def test_dashed_reason_still_suppresses(self):
        src = """
        def f(t: float):
            return t == 0.0  # reprolint: disable=R002 -- exact sentinel
        """
        assert rule_ids(src, select=["R002"]) == []


class TestEngine:
    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="unknown rule id"):
            get_rules(["R999"])

    def test_selection_runs_only_selected(self):
        report = lint_source("import random\n", module="repro.core.snippet", select=["R002"])
        assert report.ok

    def test_parse_error_reported_as_r000(self):
        report = LintEngine().check_source("def broken(:\n", module="repro.core.snippet")
        assert [f.rule_id for f in report.findings] == ["R000"]

    def test_run_over_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("def f(t: float):\n    return t == 0.0\n")
        (pkg / "good.py").write_text("__all__ = []\n")
        report = lint_paths([tmp_path])
        assert report.files_checked == 2
        assert any(f.rule_id == "R002" for f in report.findings)
        # module names derived from the path: the file is in repro.core
        assert any("bad.py" in f.path for f in report.findings)

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["/nonexistent/reprolint/target"])

    def test_every_rule_has_id_severity_and_hint(self):
        seen = set()
        for cls in ALL_RULES:
            assert cls.rule_id.startswith("R") and len(cls.rule_id) == 4
            assert cls.rule_id not in seen
            seen.add(cls.rule_id)
            assert isinstance(cls.severity, Severity)
            assert cls.summary
            assert cls.fix_hint


class TestReporting:
    def _dirty_report(self):
        return lint_source(
            "def f(t: float):\n    return t == 0.0\n",
            module="repro.core.snippet",
            select=["R002"],
        )

    def test_text_format_has_location_and_rule(self):
        text = format_text(self._dirty_report())
        assert "R002" in text
        assert ":2:" in text
        assert "hint:" in text

    def test_text_format_clean_summary(self):
        report = lint_source("__all__ = []\n", module="repro.core.snippet")
        assert "clean" in format_text(report)

    def test_json_format_round_trips(self):
        payload = json.loads(format_json(self._dirty_report()))
        assert payload["summary"]["n_findings"] == 1
        assert payload["findings"][0]["rule"] == "R002"
        assert payload["findings"][0]["line"] == 2
        assert payload["summary"]["ok"] is False

    def test_rule_table_lists_all_rules(self):
        table = format_rule_table()
        for cls in ALL_RULES:
            assert cls.rule_id in table

    def test_sarif_format_is_valid_code_scanning_payload(self):
        from repro.lint import format_sarif

        sarif = json.loads(format_sarif(self._dirty_report()))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rule_ids_listed = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for cls in ALL_RULES:
            assert cls.rule_id in rule_ids_listed
        result = run["results"][0]
        assert result["ruleId"] == "R002"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["region"]["startLine"] == 2
        # ruleIndex must point at the matching catalogue entry
        assert rule_ids_listed[result["ruleIndex"]] == "R002"

    def test_sarif_clean_report_has_no_results(self):
        from repro.lint import format_sarif

        report = lint_source("__all__ = []\n", module="repro.core.snippet")
        sarif = json.loads(format_sarif(report))
        assert sarif["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# the self-test and the CLI gate
# ---------------------------------------------------------------------------


class TestSelfTest:
    def test_src_tree_is_clean(self):
        report = lint_paths([SRC])
        assert report.files_checked > 70
        details = "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}" for f in report.findings
        )
        assert report.ok, f"reprolint findings in src/:\n{details}"


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *args],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC.parent), "PATH": "/usr/bin:/bin"},
        )

    def test_clean_tree_exits_zero(self):
        proc = self._run(str(SRC / "grid"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_seeded_violation_exits_nonzero(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(t: float):\n    return t == 0.0\n")
        proc = self._run(str(tmp_path))
        assert proc.returncode == 1
        assert "R002" in proc.stdout
        assert "bad.py:2:" in proc.stdout

    def test_json_output(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        proc = self._run(str(tmp_path), "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["summary"]["ok"] is False
        assert payload["findings"][0]["rule"] == "R001"

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        assert "R001" in proc.stdout and "R006" in proc.stdout

    def test_bad_select_exits_two(self):
        proc = self._run(str(SRC / "grid"), "--select", "R999")
        assert proc.returncode == 2
