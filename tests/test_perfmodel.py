"""Tests for repro.perfmodel: oracle, profiles, predictor, redistribution."""

import numpy as np
import pytest

from repro.core import DiffusionStrategy, plan_redistribution
from repro.grid import ProcessorGrid
from repro.mpisim import CostModel, LinkLoadState, MessageSet, NetworkSimulator
from repro.perfmodel import (
    DEFAULT_PROC_COUNTS,
    DEFAULT_PROFILE_DOMAINS,
    ExecTimePredictor,
    ExecutionOracle,
    ProfileTable,
)
from repro.topology import blue_gene_l


class TestExecutionOracle:
    def test_more_procs_faster(self):
        o = ExecutionOracle(noise_sigma=0.0)
        assert o.mean_time(300, 300, 16, 16) < o.mean_time(300, 300, 8, 8)

    def test_bigger_nest_slower(self):
        o = ExecutionOracle(noise_sigma=0.0)
        assert o.mean_time(400, 400, 16, 16) > o.mean_time(200, 200, 16, 16)

    def test_skewed_proc_rect_slower(self):
        # the Fig-7 effect: same processor count, skewed rectangle is slower
        o = ExecutionOracle(noise_sigma=0.0)
        assert o.mean_time(300, 300, 32, 2) > o.mean_time(300, 300, 8, 8)

    def test_noise_reproducible(self):
        o = ExecutionOracle()
        assert o.observe(300, 300, 16, 16, rng=5) == o.observe(300, 300, 16, 16, rng=5)

    def test_noise_close_to_mean(self):
        o = ExecutionOracle(noise_sigma=0.03)
        rng = np.random.default_rng(0)
        obs = [o.observe(300, 300, 16, 16, rng) for _ in range(200)]
        assert np.mean(obs) == pytest.approx(o.mean_time(300, 300, 16, 16), rel=0.02)

    def test_zero_noise_deterministic(self):
        o = ExecutionOracle(noise_sigma=0.0)
        assert o.observe(100, 100, 4, 4) == o.mean_time(100, 100, 4, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionOracle(c_comp=0)
        with pytest.raises(ValueError):
            ExecutionOracle(levels=0)
        with pytest.raises(ValueError):
            ExecutionOracle().mean_time(0, 10, 2, 2)


class TestProfileTable:
    def test_shape(self):
        t = ProfileTable(ExecutionOracle())
        assert t.times.shape == (len(DEFAULT_PROFILE_DOMAINS), len(DEFAULT_PROC_COUNTS))

    def test_monotone_in_procs(self):
        t = ProfileTable(ExecutionOracle(noise_sigma=0.0))
        assert np.all(np.diff(t.times, axis=1) < 0)  # more procs, less time

    def test_features(self):
        t = ProfileTable(ExecutionOracle())
        f = t.features
        assert f.shape[1] == 2
        assert np.all(f[:, 1] >= 1.0)  # aspect >= 1

    def test_deterministic(self):
        a = ProfileTable(ExecutionOracle(), seed=7)
        b = ProfileTable(ExecutionOracle(), seed=7)
        assert np.array_equal(a.times, b.times)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProfileTable(ExecutionOracle(), domains=((100, 100),))
        with pytest.raises(ValueError):
            ProfileTable(ExecutionOracle(), proc_counts=(64,))
        with pytest.raises(ValueError):
            ProfileTable(ExecutionOracle(), proc_counts=(64, 32))
        with pytest.raises(ValueError):
            ProfileTable(ExecutionOracle(), samples=0)


class TestExecTimePredictor:
    @pytest.fixture(scope="class")
    def predictor(self):
        return ExecTimePredictor(ProfileTable(ExecutionOracle()))

    def test_accuracy_on_profiled_domain(self, predictor):
        o = ExecutionOracle(noise_sigma=0.0)
        for nx, ny in ((300, 300), (175, 175)):
            for p in (256, 512):
                g = p  # square-like grids were profiled
                from repro.grid import ProcessorGrid

                grid = ProcessorGrid.square_like(p)
                truth = o.mean_time(nx, ny, grid.px, grid.py)
                pred = predictor.predict(nx, ny, p)
                assert pred == pytest.approx(truth, rel=0.1)

    def test_interpolated_proc_count(self, predictor):
        # 320 procs is not profiled; prediction must fall between neighbours
        lo = predictor.predict(300, 300, 256)
        hi = predictor.predict(300, 300, 384)
        mid = predictor.predict(300, 300, 320)
        assert min(lo, hi) <= mid <= max(lo, hi)

    def test_clamps_out_of_range_procs(self, predictor):
        assert predictor.predict(300, 300, 2048) == predictor.predict(300, 300, 1024)

    def test_outside_hull_uses_nearest(self, predictor):
        # tiny domain far outside profiled hull still predicts something finite
        v = predictor.predict(40, 40, 256)
        assert np.isfinite(v) and v > 0

    def test_weights_normalised(self, predictor):
        w = predictor.weights({1: (300, 300), 2: (200, 200)}, 1024)
        assert sum(w.values()) == pytest.approx(1.0)
        assert w[1] > w[2]  # bigger nest, bigger share

    def test_weights_empty(self, predictor):
        assert predictor.weights({}, 1024) == {}

    def test_rows_equal_per_count_interpolators(self):
        """One interpolator of each kind over the whole times table gives,
        bit for bit, the rows of one interpolator per processor count."""
        from scipy.interpolate import LinearNDInterpolator, NearestNDInterpolator

        profiles = ProfileTable(ExecutionOracle())
        predictor = ExecTimePredictor(profiles)
        scale = profiles.features.max(axis=0)
        pts = profiles.features / scale
        columns = range(len(profiles.proc_counts))
        linear = [LinearNDInterpolator(pts, profiles.times[:, c]) for c in columns]
        nearest = [NearestNDInterpolator(pts, profiles.times[:, c]) for c in columns]
        rng = np.random.default_rng(7)
        hull = []
        for nx, ny in rng.integers(40, 501, size=(300, 2)):
            q = np.asarray([[nx * ny, max(nx, ny) / min(nx, ny)]]) / scale
            expected = []
            for lin, near in zip(linear, nearest):
                v = lin(q)[0]
                expected.append(near(q)[0] if np.isnan(v) else v)
            hull.append(not np.isnan(linear[0](q)[0]))
            got = predictor.predict_at_profiled_counts(int(nx), int(ny))
            assert np.array_equal(got, np.asarray(expected)), (nx, ny)
        assert any(hull) and not all(hull)  # sizes inside and outside the hull

    def test_memo_bound_holds_and_changes_nothing(self, monkeypatch):
        import repro.perfmodel.exectime as exectime

        sizes = [(40 + 13 * i, 60 + 7 * i) for i in range(12)] * 2
        unbounded = ExecTimePredictor(ProfileTable(ExecutionOracle()))
        expected = [unbounded.predict(nx, ny, 256) for nx, ny in sizes]
        monkeypatch.setattr(exectime, "_PROFILE_CACHE_LIMIT", 2)
        bounded = ExecTimePredictor(ProfileTable(ExecutionOracle()))
        got = []
        for nx, ny in sizes:
            got.append(bounded.predict(nx, ny, 256))
            assert len(bounded._profile_cache) <= 2
        assert got == expected
        assert len(unbounded._profile_cache) == 12
        # each entry owns its row, not a view pinning the interpolator output
        assert all(row.base is None for row in unbounded._profile_cache.values())

    def test_validation(self, predictor):
        with pytest.raises(ValueError):
            predictor.predict(0, 10, 64)
        with pytest.raises(ValueError):
            predictor.predict(10, 10, 0)

    def test_correlation_with_truth(self, predictor):
        # the §V-F experiment in miniature: r should be high (paper ~0.9)
        o = ExecutionOracle()
        rng = np.random.default_rng(1)
        preds, actuals = [], []
        from repro.grid import ProcessorGrid

        for _ in range(60):
            nx = int(rng.integers(150, 420))
            ny = int(rng.integers(150, 420))
            p = int(rng.integers(64, 1024))
            grid = ProcessorGrid.square_like(p)
            preds.append(predictor.predict(nx, ny, p))
            actuals.append(o.observe(nx, ny, grid.px, grid.py, rng))
        r = np.corrcoef(preds, actuals)[0, 1]
        assert r > 0.8


class TestRedistTimes:
    """The §IV-C1 measured time a plan reports: each retained nest's own
    alltoallv, timed by the network simulator, summed over the nests."""

    SIZES = {nid: (120 + 20 * nid, 90 + 10 * nid) for nid in range(1, 5)}

    def _plan(self, new_weights, link_state=False):
        m = blue_gene_l(256)
        cost = CostModel.for_machine(m)
        sim = NetworkSimulator(m.mapping, cost)
        grid = ProcessorGrid(*m.grid)
        diffusion = DiffusionStrategy()
        old = diffusion.reallocate(None, {1: 0.2, 2: 0.3, 3: 0.5}, grid)
        new = diffusion.reallocate(old, new_weights, grid)
        state = LinkLoadState(sim) if link_state else None
        plan = plan_redistribution(
            old, new, self.SIZES, m, cost, sim, link_state=state
        )
        return plan, sim

    def test_empty(self):
        plan, _ = self._plan({4: 1.0})  # no nest is retained
        assert plan.moves == [] and plan.measured_time == 0.0

    def test_sums_over_nests(self):
        plan, sim = self._plan({1: 0.3, 2: 0.4, 3: 0.3})
        assert len(plan.moves) == 3
        assert plan.measured_time == sum(
            sim.bottleneck_time(move.messages) for move in plan.moves
        )

    def test_given_link_loads_time_like_routed_ones(self):
        """A plan that keeps a live link state times each nest from its
        charge; the time equals the routed one."""
        weights = {1: 0.3, 2: 0.4, 3: 0.3}
        routed, _ = self._plan(weights)
        charged, _ = self._plan(weights, link_state=True)
        assert charged.measured_time == routed.measured_time > 0

    def test_flow_level_option(self):
        """The max-min-fair flow model (``repro bench``'s ``netsim.flow``
        phase) times the same messages the bottleneck bound does."""
        m = blue_gene_l(256)
        sim = NetworkSimulator(m.mapping, CostModel.for_machine(m))
        a = MessageSet(np.array([0]), np.array([1]), np.array([1e6]))
        assert sim.flow_time(a) > 0
