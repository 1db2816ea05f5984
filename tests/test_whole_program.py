"""Tests for the whole-program analysis engine.

Covers the three new layers (project symbol table, call graph,
dataflow) and the four interprocedural rules R011–R014, all through
multi-module in-memory fixtures (``lint_sources`` /
``project_from_sources``), plus the wall-time bound the ISSUE demands:
the full 14-rule pass must stay under twice the R001–R010 pass.
"""

import textwrap
import time
from pathlib import Path

from repro.lint import (
    build_callgraph,
    lint_paths,
    lint_sources,
    project_from_sources,
)
from repro.lint.dataflow import reachable_with_paths, render_path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def project(**modules):
    return project_from_sources(
        {name: textwrap.dedent(src) for name, src in modules.items()}
    )


def rule_ids(sources, select):
    report = lint_sources(
        {name: textwrap.dedent(src) for name, src in sources.items()},
        select=select,
    )
    return sorted({f.rule_id for f in report.findings})


def findings(sources, select):
    report = lint_sources(
        {name: textwrap.dedent(src) for name, src in sources.items()},
        select=select,
    )
    return report.findings


# ---------------------------------------------------------------------------
# project symbol table
# ---------------------------------------------------------------------------


class TestProject:
    def test_cross_module_resolution(self):
        proj = project(
            **{
                "pkg.impl": "def thing():\n    pass\n",
                "pkg.user": "from pkg.impl import thing\n\ndef use():\n    thing()\n",
            }
        )
        assert proj.resolve("pkg.user", "thing") == "pkg.impl.thing"

    def test_init_reexport_canonicalizes(self):
        proj = project(
            **{
                "pkg.__init__": "from pkg.impl import thing\n",
                "pkg.impl": "def thing():\n    pass\n",
                "app": "from pkg import thing\n\ndef use():\n    thing()\n",
            }
        )
        resolved = proj.resolve("app", "thing")
        assert proj.canonicalize(resolved) == "pkg.impl.thing"

    def test_relative_import_resolution(self):
        proj = project(
            **{
                "pkg.__init__": "",
                "pkg.impl": "def thing():\n    pass\n",
                "pkg.user": "from .impl import thing\n",
            }
        )
        assert proj.resolve("pkg.user", "thing") == "pkg.impl.thing"

    def test_method_lookup_through_bases(self):
        proj = project(
            app="""
            class Base:
                def shared(self):
                    pass

            class Child(Base):
                pass
            """
        )
        method = proj.lookup_method("app.Child", "shared")
        assert method is not None and method.qualname == "app.Base.shared"
        assert "app.Child" in proj.subclasses("app.Base")

    def test_protocol_implementors_are_structural(self):
        proj = project(
            app="""
            from typing import Protocol

            class Runner(Protocol):
                def run(self) -> None: ...

            class Fast:
                def run(self) -> None:
                    pass

            class Unrelated:
                def walk(self) -> None:
                    pass
            """
        )
        impls = proj.protocol_implementors("app.Runner")
        assert "app.Fast" in impls
        assert "app.Unrelated" not in impls


# ---------------------------------------------------------------------------
# call graph
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_direct_and_attribute_calls(self):
        proj = project(
            app="""
            class Engine:
                def start(self):
                    pass

            def helper():
                pass

            def main():
                helper()
                e = Engine()
                e.start()
            """
        )
        graph = build_callgraph(proj)
        assert "app.helper" in graph.edges["app.main"]
        assert "app.Engine.start" in graph.edges["app.main"]

    def test_functools_partial_unwraps(self):
        proj = project(
            app="""
            import functools

            def worker(x):
                pass

            def main():
                f = functools.partial(worker, 1)
            """
        )
        graph = build_callgraph(proj)
        assert "app.worker" in graph.edges["app.main"]

    def test_protocol_call_fans_out_to_implementors(self):
        proj = project(
            app="""
            from typing import Protocol

            class Strategy(Protocol):
                def pick(self) -> int: ...

            class Greedy:
                def pick(self) -> int:
                    return 1

            def drive(s: Strategy):
                return s.pick()
            """
        )
        graph = build_callgraph(proj)
        assert "app.Greedy.pick" in graph.edges["app.drive"]

    def test_init_reexport_call_reaches_definition(self):
        proj = project(
            **{
                "pkg.__init__": "from pkg.impl import thing\n",
                "pkg.impl": "def thing():\n    pass\n",
                "app": "from pkg import thing\n\ndef use():\n    thing()\n",
            }
        )
        graph = build_callgraph(proj)
        assert "pkg.impl.thing" in graph.edges["app.use"]

    def test_module_cycle_terminates_with_both_edges(self):
        proj = project(
            **{
                "core": (
                    "from faults import recover\n\n"
                    "def adapt():\n    recover()\n"
                ),
                "faults": (
                    "from core import adapt\n\n"
                    "def recover():\n    adapt()\n"
                ),
            }
        )
        graph = build_callgraph(proj)
        assert "faults.recover" in graph.edges["core.adapt"]
        assert "core.adapt" in graph.edges["faults.recover"]
        # reachability over the cycle terminates too
        reach = reachable_with_paths(graph.edges, ["core.adapt"])
        assert "faults.recover" in reach

    def test_render_path_elides_middles(self):
        path = tuple(f"m.f{i}" for i in range(9))
        text = render_path(path)
        assert "f0" in text and "f8" in text and "..." in text


# ---------------------------------------------------------------------------
# R011 — determinism taint
# ---------------------------------------------------------------------------

SINK = {"repro.obs.flight": "def emit(value):\n    pass\n"}


class TestR011Determinism:
    def test_clock_on_sink_path_flagged(self):
        sources = {
            **SINK,
            "app.policy": """
            import time
            from repro.obs.flight import emit

            def decide():
                emit(time.time())
            """,
        }
        assert rule_ids(sources, ["R011"]) == ["R011"]

    def test_clock_without_sink_path_clean(self):
        sources = {
            **SINK,
            "app.policy": "import time\n\ndef local_only():\n    return time.time()\n",
        }
        assert rule_ids(sources, ["R011"]) == []

    def test_unseeded_make_rng_flagged_seeded_clean(self):
        sources = {
            **SINK,
            "repro.util.rng": "def make_rng(seed=None):\n    pass\n",
            "app.policy": """
            from repro.obs.flight import emit
            from repro.util.rng import make_rng

            def bad():
                emit(make_rng())

            def good():
                emit(make_rng(42))
            """,
        }
        found = findings(sources, ["R011"])
        assert len(found) == 1
        assert "make_rng() without a seed" in found[0].message

    def test_clock_inside_obs_exempt(self):
        sources = {
            **SINK,
            "repro.obs.timers": """
            import time
            from repro.obs.flight import emit

            def stamp():
                emit(time.perf_counter())
            """,
        }
        assert rule_ids(sources, ["R011"]) == []

    def test_finding_message_names_witness_path(self):
        sources = {
            **SINK,
            "app.policy": """
            import time
            from repro.obs.flight import emit

            def inner():
                emit(time.time())

            def outer():
                inner()
            """,
        }
        messages = [f.message for f in findings(sources, ["R011"])]
        assert any("emit" in m for m in messages)

    def test_flight_recorder_module_is_a_sink(self):
        # the recorder's emit/span/count live in repro.obs.recorder, not in
        # repro.obs.flight (which only loads and replays logs)
        sources = {
            "repro.obs.recorder": """
            class FlightRecorder:
                def emit(self, kind, **data):
                    pass

            def get_recorder():
                return FlightRecorder()
            """,
            "repro.util.rng": "def make_rng(seed=None):\n    pass\n",
            "app.policy": """
            from repro.obs.recorder import get_recorder
            from repro.util.rng import make_rng

            def decide():
                get_recorder().emit("pick", value=make_rng().random())
            """,
        }
        found = findings(sources, ["R011"])
        assert len(found) == 1
        assert "make_rng() without a seed" in found[0].message


# ---------------------------------------------------------------------------
# R012 — order dependence
# ---------------------------------------------------------------------------


class TestR012OrderDependence:
    def test_env_read_on_sink_path_flagged(self):
        sources = {
            **SINK,
            "app.cfg": """
            import os
            from repro.obs.flight import emit

            def configure():
                emit(os.environ.get("MODE"))
            """,
        }
        assert rule_ids(sources, ["R012"]) == ["R012"]

    def test_set_iteration_on_sink_path_flagged(self):
        sources = {
            **SINK,
            "app.cfg": """
            from repro.obs.flight import emit

            def walk(ranks: set):
                for r in ranks:
                    emit(r)
            """,
        }
        assert rule_ids(sources, ["R012"]) == ["R012"]

    def test_sorted_set_iteration_clean(self):
        sources = {
            **SINK,
            "app.cfg": """
            from repro.obs.flight import emit

            def walk(ranks: set):
                for r in sorted(ranks):
                    emit(r)
                total = sum(r for r in ranks)
                emit(total)
            """,
        }
        assert rule_ids(sources, ["R012"]) == []

    def test_exempt_module_env_read_clean(self):
        sources = {
            **SINK,
            "repro.sanitize.hooks": """
            import os
            from repro.obs.flight import emit

            def activation():
                emit(os.environ.get("REPRO_SANITIZE"))
            """,
        }
        assert rule_ids(sources, ["R012"]) == []


# ---------------------------------------------------------------------------
# R013 — shared-state mutation under async workers
# ---------------------------------------------------------------------------


class TestR013SharedMutation:
    def test_global_reachable_from_entry_flagged(self):
        sources = {
            "app.runner": """
            _CACHE = None

            def _install(value):
                global _CACHE
                _CACHE = value

            def run_workload(workload):
                _install(workload)
            """
        }
        found = findings(sources, ["R013"])
        assert len(found) == 1
        assert "module global" in found[0].message
        assert "run_workload" in found[0].message  # witness path

    def test_shared_param_attribute_write_flagged(self):
        sources = {
            "app.runner": """
            def run_workload(context: ExperimentContext):
                context.ledger = None
            """
        }
        found = findings(sources, ["R013"])
        assert len(found) == 1
        assert "ExperimentContext" in found[0].message

    def test_self_mutation_and_unreachable_global_clean(self):
        sources = {
            "app.runner": """
            def _untouched():
                global _STATE
                _STATE = 1

            class Reallocator:
                def step(self):
                    self.count = 1

            def run_workload(realloc: Reallocator):
                realloc_step = realloc.step()
            """
        }
        assert rule_ids(sources, ["R013"]) == []

    def test_serve_coroutine_is_a_root(self):
        # an async def inside repro.serve is a worker root even though no
        # classic entry point ever calls it
        sources = {
            "repro.serve.api": """
            def _install(value):
                global _ROUTES
                _ROUTES = value

            async def accept(request):
                _install(request)
            """
        }
        found = findings(sources, ["R013"])
        assert len(found) == 1
        assert "module global" in found[0].message
        assert "accept" in found[0].message  # witness path starts at the root

    def test_serve_handler_name_is_a_root(self):
        sources = {
            "repro.serve.scheduler": """
            def handle_step(store: CommLedger):
                store.sent = None
            """
        }
        found = findings(sources, ["R013"])
        assert len(found) == 1
        assert "CommLedger" in found[0].message

    def test_async_outside_serve_not_a_root(self):
        sources = {
            "app.other": """
            async def accept(request):
                global _ROUTES
                _ROUTES = request
            """
        }
        assert rule_ids(sources, ["R013"]) == []

    def test_mutable_default_mutated_in_handler_flagged(self):
        # the created-once default dict is shared by every call from every
        # worker: a cross-session leak wearing a local-variable costume
        sources = {
            "repro.serve.api": """
            async def handle_submit(spec, pending={}):
                pending[spec] = True
                return pending
            """
        }
        found = findings(sources, ["R013"])
        assert len(found) == 1
        assert "shared mutable dict" in found[0].message

    def test_mutable_default_mutator_call_flagged(self):
        sources = {
            "repro.serve.scheduler": """
            def advance(step, seen=[]):
                seen.append(step)
            """
        }
        found = findings(sources, ["R013"])
        assert len(found) == 1
        assert "seen.append()" in found[0].message

    def test_mutable_default_never_mutated_clean(self):
        # reading a mutable default is fine; only writes are a hazard
        sources = {
            "repro.serve.api": """
            async def handle_lookup(key, table={}):
                return table.get(key)
            """
        }
        assert rule_ids(sources, ["R013"]) == []


# ---------------------------------------------------------------------------
# R014 — kernel parity
# ---------------------------------------------------------------------------


class TestR014KernelParity:
    def test_in_sync_pair_clean(self):
        sources = {
            "app.kernels": """
            def _move_reference(data, n):
                return data

            def _move_vector(data, n):
                return data

            def move(data, n):
                return _move_vector(data, n)
            """
        }
        assert rule_ids(sources, ["R014"]) == []

    def test_desynced_signatures_flagged(self):
        # the deliberately de-synced pair the acceptance criteria demand
        sources = {
            "app.kernels": """
            def _move_reference(data, n):
                return data

            def _move_vector(data, n, fast):
                return data

            def move(data, n):
                _move_vector(data, n, True)
            """
        }
        found = findings(sources, ["R014"])
        assert any("share one signature" in f.message for f in found)

    def test_divergent_kwarg_branch_flagged(self):
        sources = {
            "app.kernels": """
            def _scan_reference(data, clip):
                return data

            def _scan_vector(data, clip):
                if clip:
                    return data
                return data

            def scan(data, clip):
                _scan_vector(data, clip)
            """
        }
        found = findings(sources, ["R014"])
        assert any("kwarg branches differ" in f.message for f in found)

    def test_oracle_called_from_shipped_function_flagged(self):
        sources = {
            "app.kernels": """
            def _sum_reference(data):
                return data

            def _sum_vector(data):
                return data

            def total(data):
                return _sum_reference(data)
            """
        }
        found = findings(sources, ["R014"])
        assert [f.message for f in found] == [
            "shipped function total calls oracle _sum_reference; *reference* "
            "functions are test-only specifications, callable only from "
            "tests and other *reference* functions"
        ]

    def test_oracle_called_only_by_oracle_clean(self):
        sources = {
            "app.kernels": """
            def _routes_reference(msgs):
                return msgs

            def _loads_reference(msgs):
                return _routes_reference(msgs)

            def _loads_vector(msgs):
                return msgs

            class Sim:
                def _rebuild_reference(self, msgs):
                    return _loads_reference(msgs)
            """
        }
        assert rule_ids(sources, ["R014"]) == []

    def test_unpaired_oracle_without_dispatch_flagged(self):
        sources = {
            "app.kernels": """
            def _routes_reference(msgs):
                return msgs

            def loads(msgs):
                return _routes_reference(msgs)
            """
        }
        found = findings(sources, ["R014"])
        assert any(
            "loads calls oracle _routes_reference" in f.message for f in found
        )

    def test_vector_orphan_flagged(self):
        sources = {
            "app.kernels": """
            def _fma_vector(data):
                return data
            """
        }
        found = findings(sources, ["R014"])
        assert any("no *reference* oracle" in f.message for f in found)


# ---------------------------------------------------------------------------
# the repo's own code passes, within the wall-time budget
# ---------------------------------------------------------------------------


class TestOnRealTree:
    def test_src_clean_under_all_rules_within_time_budget(self):
        # Two interleaved rounds (per-file, whole-program, per-file,
        # whole-program) compared by their minima: one timing of each
        # pass can cross the bound on host noise alone.
        t_base = t_full = float("inf")
        for _round in range(2):
            t0 = time.perf_counter()
            baseline = lint_paths(
                [SRC], select=[f"R{i:03d}" for i in range(1, 11)]
            )
            t_base = min(t_base, time.perf_counter() - t0)
            assert baseline.ok, [str(f) for f in baseline.findings[:5]]

            t0 = time.perf_counter()
            full = lint_paths([SRC])
            t_full = min(t_full, time.perf_counter() - t0)
            assert full.ok, [str(f) for f in full.findings[:5]]
        # the whole-program pass must cost < 2x the per-file pass
        assert t_full < 2.0 * max(t_base, 0.2), (t_full, t_base)
