"""Tests for the bootstrap confidence intervals."""

import numpy as np
import pytest

from repro.core import StepMetrics
from repro.experiments.stats import BootstrapCI, bootstrap_improvement_ci


def metric(step, redist):
    return StepMetrics(
        step=step, n_nests=2, n_retained=1,
        predicted_redist=redist, measured_redist=redist,
        hop_bytes_avg=1.0, hop_bytes_total=1.0,
        overlap_fraction=0.5, exec_predicted=1.0, exec_actual=1.0,
    )


class TestBootstrapCI:
    def test_point_estimate_matches_direct(self):
        base = [metric(i, 2.0) for i in range(20)]
        cand = [metric(i, 1.5) for i in range(20)]
        ci = bootstrap_improvement_ci(base, cand)
        assert ci.estimate == pytest.approx(25.0)
        # constant per-step values: every resample gives the same statistic
        assert ci.low == pytest.approx(25.0)
        assert ci.high == pytest.approx(25.0)

    def test_interval_brackets_estimate(self):
        rng = np.random.default_rng(0)
        base = [metric(i, float(rng.uniform(1, 3))) for i in range(30)]
        cand = [metric(i, float(rng.uniform(0.8, 2.6))) for i in range(30)]
        ci = bootstrap_improvement_ci(base, cand)
        assert ci.low <= ci.estimate <= ci.high
        assert ci.low < ci.high

    def test_no_effect_interval_contains_zero(self):
        rng = np.random.default_rng(1)
        vals = [float(rng.uniform(1, 3)) for _ in range(40)]
        base = [metric(i, v) for i, v in enumerate(vals)]
        # same distribution, shuffled pairing: expected improvement ~ 0
        shuffled = list(vals)
        rng.shuffle(shuffled)
        cand = [metric(i, v) for i, v in enumerate(shuffled)]
        ci = bootstrap_improvement_ci(base, cand)
        assert ci.low < 0 < ci.high

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        base = [metric(i, float(rng.uniform(1, 3))) for i in range(15)]
        cand = [metric(i, float(rng.uniform(1, 3))) for i in range(15)]
        a = bootstrap_improvement_ci(base, cand, seed=7)
        b = bootstrap_improvement_ci(base, cand, seed=7)
        assert (a.low, a.high) == (b.low, b.high)

    def test_str_rendering(self):
        ci = BootstrapCI(15.0, 10.0, 20.0, 0.95, 1000)
        assert "95% CI" in str(ci)

    def test_validation(self):
        base = [metric(0, 1.0)]
        with pytest.raises(ValueError):
            bootstrap_improvement_ci(base, [])
        with pytest.raises(ValueError):
            bootstrap_improvement_ci(base, base, confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_improvement_ci(base, base, n_resamples=1)

    def test_zero_baseline(self):
        base = [metric(0, 0.0)]
        ci = bootstrap_improvement_ci(base, base)
        assert ci.estimate == 0.0

    def test_real_runs_significant(self):
        """The Table IV effect is statistically solid, not seed luck."""
        from repro.experiments import synthetic_workload
        from repro.experiments.runner import ExperimentContext, run_both_strategies
        from repro.topology import MACHINES

        ctx = ExperimentContext(MACHINES["bgl-256"])
        wl = synthetic_workload(seed=0, n_steps=40)
        scratch, diffusion = run_both_strategies(wl, ctx)
        ci = bootstrap_improvement_ci(scratch.metrics, diffusion.metrics)
        assert ci.estimate > 0
        assert ci.low > 0, f"improvement not significant: {ci}"
