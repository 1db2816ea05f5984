"""Tests for repro.experiments: workloads, runner, reports.

Heavier end-to-end checks (the full 70-case, 5-seed sweeps) live in
``benchmarks/``; here we validate correctness on reduced sizes.
"""

import numpy as np
import pytest

from repro.core import DiffusionStrategy, ScratchStrategy
from repro.experiments import (
    Workload,
    fig8_report,
    mumbai_trace_workload,
    synthetic_workload,
    table1_report,
    table2_report,
    table3_report,
)
from repro.experiments.runner import (
    ExperimentContext,
    run_both_strategies,
    run_workload,
)
from repro.grid import ProcessorGrid
from repro.topology import MACHINES
from repro.wrf.model import DomainConfig


class TestWorkloads:
    def test_synthetic_counts_in_range(self):
        wl = synthetic_workload(seed=0, n_steps=50, n_range=(2, 9))
        counts = wl.nest_counts()
        assert min(counts) >= 2 and max(counts) <= 9

    def test_synthetic_sizes_in_range(self):
        wl = synthetic_workload(seed=1, n_steps=30, size_range=(181, 361))
        for step in wl.steps:
            for nx, ny in step.values():
                assert 181 <= nx <= 361 and 181 <= ny <= 361

    def test_synthetic_deterministic(self):
        a = synthetic_workload(seed=5, n_steps=20)
        b = synthetic_workload(seed=5, n_steps=20)
        assert a.steps == b.steps

    def test_synthetic_nest_sizes_stable_over_lifetime(self):
        wl = synthetic_workload(seed=2, n_steps=40)
        seen: dict[int, tuple[int, int]] = {}
        for step in wl.steps:
            for nid, size in step.items():
                if nid in seen:
                    assert seen[nid] == size
                seen[nid] = size

    def test_synthetic_validation(self):
        with pytest.raises(ValueError):
            synthetic_workload(n_range=(0, 3))
        with pytest.raises(ValueError):
            synthetic_workload(size_range=(100, 50))

    def test_workload_requires_steps(self):
        with pytest.raises(ValueError):
            Workload(name="x", steps=[])

    def test_dynamical_trace_small(self):
        from repro.experiments import dynamical_trace_workload
        from repro.wrf.model import DomainConfig

        cfg = DomainConfig(nx=276, ny=162, sim_grid=ProcessorGrid(8, 8))
        wl = dynamical_trace_workload(
            seed=0, n_steps=10, config=cfg, n_analysis=16, spinup=15,
            roi_side_range=(20, 60),
        )
        assert wl.n_steps >= 1
        assert max(wl.nest_counts()) <= 7

    def test_mumbai_trace_small(self):
        cfg = DomainConfig(nx=128, ny=96, sim_grid=ProcessorGrid(8, 8))
        wl = mumbai_trace_workload(seed=1, n_steps=12, config=cfg, n_analysis=16)
        assert wl.n_steps >= 1
        assert max(wl.nest_counts()) <= 7
        # nest ids persist across consecutive steps (tracking works)
        persists = any(
            set(a) & set(b) for a, b in zip(wl.steps, wl.steps[1:])
        )
        assert persists


class TestRunner:
    @pytest.fixture(scope="class")
    def ctx(self):
        return ExperimentContext(MACHINES["bgl-256"])

    def test_run_produces_metrics(self, ctx):
        wl = synthetic_workload(seed=0, n_steps=8)
        run = run_workload(wl, ScratchStrategy(), ctx)
        assert len(run.metrics) == 8
        assert run.metrics[0].measured_redist == 0.0  # first step: no plan
        assert all(m.exec_actual > 0 for m in run.metrics)

    def test_run_deterministic(self, ctx):
        wl = synthetic_workload(seed=0, n_steps=6)
        a = run_workload(wl, DiffusionStrategy(), ctx)
        b = run_workload(wl, DiffusionStrategy(), ctx)
        assert a.series("measured_redist") == b.series("measured_redist")
        assert a.series("exec_actual") == b.series("exec_actual")

    def test_same_exec_noise_across_strategies(self, ctx):
        # fairness: both strategies see identical nest sets and noise stream
        wl = synthetic_workload(seed=3, n_steps=6)
        s, d = run_both_strategies(wl, ctx)
        assert [m.n_nests for m in s.metrics] == [m.n_nests for m in d.metrics]

    def test_totals_and_means(self, ctx):
        wl = synthetic_workload(seed=0, n_steps=5)
        run = run_workload(wl, ScratchStrategy(), ctx)
        assert run.total("measured_redist") == pytest.approx(
            sum(run.series("measured_redist"))
        )
        assert run.mean("overlap_fraction") <= 1.0


class TestStaticReports:
    def test_table1_matches_paper_exactly(self):
        rep = table1_report()
        assert rep.rows == [
            (1, 0, "13x8"),
            (2, 256, "13x8"),
            (3, 512, "13x16"),
            (4, 13, "19x13"),
            (5, 429, "19x19"),
        ]
        assert "Table I" in rep.text

    def test_table2_structure(self):
        rep = table2_report()
        ids = [r[0] for r in rep.rows]
        assert ids == [3, 5, 6]
        # nest 5 matches the paper exactly: start 0, 13x32
        row5 = next(r for r in rep.rows if r[0] == 5)
        assert row5 == (5, 0, "13x32")

    def test_table3_lists_machines(self):
        text = table3_report()
        assert "BG/L 1024" in text and "fist 256" in text

    def test_fig8_diffusion_overlaps_scratch_does_not(self):
        rep = fig8_report()
        for nid in (3, 5):
            assert rep.diffusion_overlap[nid] > 0.5
            assert rep.scratch_overlap[nid] == 0.0
        assert "Fig. 8" in rep.text


class TestSmallScaleReports:
    """Cut-down versions of the sweep reports (fast)."""

    def test_table4_small(self):
        from repro.experiments import table4_report

        rep = table4_report(seeds=(0,), n_steps=12, machines=("bgl-256",))
        assert "bgl-256" in rep.improvements
        assert np.isfinite(rep.improvements["bgl-256"])

    def test_fig10_11_small(self):
        from repro.experiments import fig10_fig11_report

        rep = fig10_fig11_report(seed=0, n_cases=10, machine_key="bgl-256")
        assert len(rep.cases) >= 1
        assert all(h >= 0 for h in rep.scratch_hop_bytes)
        assert all(0 <= o <= 100 for o in rep.diffusion_overlap)

    def test_fig12_small(self):
        from repro.experiments import fig12_report

        rep = fig12_report(seed=1, n_steps=6, machine_key="bgl-256")
        assert rep.chose_scratch + rep.chose_diffusion == rep.n_decisions
        assert 0 <= rep.correct_choices <= rep.n_decisions
        assert set(rep.totals) == {"scratch", "diffusion", "dynamic"}

    def test_prediction_accuracy_small(self):
        from repro.experiments import prediction_accuracy_report

        rep = prediction_accuracy_report(seed=0, n_steps=12, machine_key="bgl-256")
        assert rep.pearson_r > 0.7

    def test_fig9_small(self):
        from repro.experiments import fig9_report

        rep = fig9_report(seed=2005, step=6, n_analysis=16)
        # the full NNC never produces MORE overlapping cluster pairs
        assert rep.nnc_overlapping_pairs <= rep.simple_overlapping_pairs
