"""Tests for repro.wrf: cloud systems, fields, model, nests, scenarios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import parallel_data_analysis
from repro.grid import ProcessorGrid, Rect
from repro.wrf import (
    CloudSystem,
    DomainConfig,
    Nest,
    NestTracker,
    WrfLikeModel,
    advance_systems,
    mumbai_2005_scenario,
    olr_field,
    qcloud_field,
)
from repro.wrf.clouds import random_system
from repro.wrf.fields import CLEAR_SKY_OLR, DEEP_CLOUD_OLR, QCLOUD_SATURATION


def system(**kw):
    defaults = dict(
        system_id=1, x=50.0, y=50.0, sigma_x=10.0, sigma_y=10.0,
        peak=2e-3, vx=1.0, vy=0.0, lifetime=20,
    )
    defaults.update(kw)
    return CloudSystem(**defaults)


class TestCloudSystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            system(sigma_x=0)
        with pytest.raises(ValueError):
            system(peak=-1)
        with pytest.raises(ValueError):
            system(lifetime=0)

    def test_step_moves(self):
        s2 = system().step()
        assert s2.x == 51.0 and s2.age == 1

    def test_lifecycle_intensity(self):
        s = system(lifetime=20, ramp=4)
        ramp_up = [s0.intensity for s0 in [system(age=a) for a in range(5)]]
        assert ramp_up[0] < ramp_up[3]
        assert system(age=10).intensity == 1.0
        assert system(age=19).intensity < 1.0
        assert system(age=20).intensity == 0.0

    def test_advance_drops_dead(self):
        out = advance_systems([system(age=18, lifetime=19), system(age=0)])
        assert len(out) == 1

    def test_random_system_in_domain(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_system(rng, 1, 200, 100)
            assert 0 < s.x < 200 and 0 < s.y < 100


class TestFields:
    def test_qcloud_peak_at_center(self):
        q = qcloud_field(100, 100, [system(x=50, y=50, age=10)])
        yx = np.unravel_index(np.argmax(q), q.shape)
        assert abs(yx[0] - 50) <= 1 and abs(yx[1] - 50) <= 1

    def test_qcloud_empty_systems(self):
        assert qcloud_field(10, 10, []).sum() == 0.0

    def test_qcloud_additive(self):
        a = qcloud_field(60, 60, [system(x=20, y=20, age=10)])
        b = qcloud_field(60, 60, [system(x=40, y=40, age=10)])
        both = qcloud_field(
            60, 60, [system(x=20, y=20, age=10), system(x=40, y=40, age=10)]
        )
        assert np.allclose(both, a + b, atol=1e-12)

    def test_qcloud_offdomain_system(self):
        q = qcloud_field(50, 50, [system(x=500, y=500, age=10)])
        assert q.sum() == 0.0

    def test_qcloud_invalid_domain(self):
        with pytest.raises(ValueError):
            qcloud_field(0, 10, [])

    def test_olr_bounds(self):
        q = qcloud_field(80, 80, [system(x=40, y=40, age=10)])
        o = olr_field(q)
        assert o.max() <= CLEAR_SKY_OLR + 1e-9
        assert o.min() >= DEEP_CLOUD_OLR - 1e-9

    def test_olr_below_200_under_strong_cloud(self):
        q = qcloud_field(80, 80, [system(x=40, y=40, age=10, peak=2e-3)])
        o = olr_field(q)
        assert o[40, 40] <= 200.0
        assert o[0, 0] > 280.0  # clear corner

    def test_olr_is_the_closed_form_bit_for_bit(self):
        q = np.random.default_rng(5).uniform(-1e-4, 3e-3, (40, 60))
        q[0, :3] = (0.0, 1.0e-3, np.nan)
        o = olr_field(q)
        expect = CLEAR_SKY_OLR - (CLEAR_SKY_OLR - DEEP_CLOUD_OLR) * np.minimum(
            q / QCLOUD_SATURATION, 1.0
        )
        assert np.array_equal(o, expect, equal_nan=True)
        assert o is not q and np.array_equal(q[0, :2], (0.0, 1.0e-3))

    def test_olr_validation(self):
        with pytest.raises(ValueError):
            olr_field(np.zeros((2, 2)), clear_sky=100.0, deep_cloud=200.0)
        with pytest.raises(ValueError):
            olr_field(np.zeros((2, 2)), saturation=0.0)


class TestModel:
    def _config(self):
        return DomainConfig(nx=64, ny=64, sim_grid=ProcessorGrid(4, 4))

    def test_split_files_cover_domain(self):
        m = WrfLikeModel(self._config(), systems=[system(x=30, y=30, age=5)])
        batch = m.write_split_files()
        files = [batch.file(rank) for rank in range(len(batch))]
        assert len(files) == 16
        total = sum(f.extent.area for f in files)
        assert total == 64 * 64

    def test_split_files_match_full_field(self):
        m = WrfLikeModel(self._config(), systems=[system(x=30, y=30, age=5)])
        q, o = m.fields()
        batch = m.write_split_files()
        assert batch.qcloud is q and batch.olr is o  # shared, never copied
        for f in map(batch.file, range(len(batch))):
            e = f.extent
            assert np.array_equal(f.qcloud, q[e.y0 : e.y1, e.x0 : e.x1])
            assert np.array_equal(f.olr, o[e.y0 : e.y1, e.x0 : e.x1])

    def test_step_advances(self):
        m = WrfLikeModel(self._config(), systems=[system(age=0, lifetime=3)])
        for _ in range(5):
            m.step()
        assert m.systems == [] and m.step_count == 5

    def test_birth_fn_called(self):
        born = []

        def births(step, systems):
            s = system(system_id=100 + step, age=0)
            born.append(s)
            return [s]

        m = WrfLikeModel(self._config(), birth_fn=births)
        m.step()
        assert len(m.systems) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DomainConfig(nx=2, ny=2, sim_grid=ProcessorGrid(4, 4))

    def test_subdomain_extent(self):
        cfg = self._config()
        batch = WrfLikeModel(cfg).write_split_files()
        assert batch.extent(cfg.sim_grid.rank(1, 2)) == Rect(16, 32, 16, 16)

    def test_fields_built_once_per_step_and_read_only(self):
        m = WrfLikeModel(self._config(), systems=[system(x=30, y=30, age=5)])
        for _ in range(3):
            q, o = m.fields()
            q2, o2 = m.fields()
            assert q is q2 and o is o2
            for arr in (q, o):
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0
            m.step()
            q3, o3 = m.fields()
            assert q3 is not q and o3 is not o
            fresh = qcloud_field(64, 64, m.systems)
            assert np.array_equal(q3, fresh)
            assert np.array_equal(o3, olr_field(fresh))

    def test_split_files_tile_the_domain_exactly(self):
        # 67 x 45 over 4 x 3 ranks: uneven tiles on both axes
        cfg = DomainConfig(nx=67, ny=45, sim_grid=ProcessorGrid(4, 3))
        m = WrfLikeModel(cfg, systems=[system(x=30, y=20, age=5)])
        q, o = m.fields()
        cover = np.zeros((45, 67), dtype=np.int64)
        batch = m.write_split_files()
        files = [batch.file(rank) for rank in range(len(batch))]
        assert len(files) == cfg.sim_grid.nprocs
        for f in files:
            e = f.extent
            assert f.file_index == cfg.sim_grid.rank(f.block_x, f.block_y)
            assert 0 <= e.x0 and e.x1 <= 67 and 0 <= e.y0 and e.y1 <= 45
            cover[e.y0 : e.y1, e.x0 : e.x1] += 1
            assert np.array_equal(f.qcloud, q[e.y0 : e.y1, e.x0 : e.x1])
            assert np.array_equal(f.olr, o[e.y0 : e.y1, e.x0 : e.x1])
        assert (cover == 1).all()  # disjoint, and their union is the domain
        assert sorted((f.block_x, f.block_y) for f in files) == sorted(
            (bx, by) for bx in range(4) for by in range(3)
        )

    def test_pda_detects_model_cloud(self):
        cfg = self._config()
        m = WrfLikeModel(cfg, systems=[system(x=32, y=32, age=8, peak=2.5e-3)])
        result = parallel_data_analysis(m.write_split_files(), cfg.sim_grid, 4)
        assert len(result.rectangles) >= 1
        # the detected ROI covers the cloud centre
        assert any(r.contains_point(32, 32) for r in result.rectangles)


class TestNest:
    def test_sizes(self):
        n = Nest(nest_id=1, roi=Rect(10, 20, 30, 40), refinement=3)
        assert (n.nx, n.ny) == (90, 120)

    def test_validation(self):
        with pytest.raises(ValueError):
            Nest(1, Rect(0, 0, 0, 0))
        with pytest.raises(ValueError):
            Nest(1, Rect(0, 0, 2, 2), refinement=0)

    def test_interpolation_constant_field(self):
        parent = np.full((50, 50), 7.0)
        n = Nest(1, Rect(5, 5, 10, 10))
        fine = n.interpolate_from_parent(parent)
        assert fine.shape == (30, 30)
        assert np.allclose(fine, 7.0)

    def test_interpolation_linear_field_exact(self):
        # bilinear interpolation reproduces linear ramps exactly (interior)
        yy, xx = np.mgrid[0:40, 0:40]
        parent = 2.0 * xx + 3.0 * yy
        n = Nest(1, Rect(10, 10, 8, 8))
        fine = n.interpolate_from_parent(parent.astype(float))
        fx = 10 + (np.arange(n.nx) + 0.5) / 3 - 0.5
        fy = 10 + (np.arange(n.ny) + 0.5) / 3 - 0.5
        expected = 2.0 * fx[None, :] + 3.0 * fy[:, None]
        assert np.allclose(fine, expected)

    def test_interpolation_roi_bounds(self):
        n = Nest(1, Rect(45, 45, 10, 10))
        with pytest.raises(ValueError):
            n.interpolate_from_parent(np.zeros((50, 50)))

    @pytest.mark.parametrize("roi", [Rect(-5, -3, 10, 10), Rect(-1, 0, 4, 4), Rect(0, -1, 4, 4)])
    def test_interpolation_rejects_a_negative_origin(self, roi):
        # the near edges are checked like the far ones: no field smeared
        # from the parent's edge
        with pytest.raises(ValueError, match="outside parent"):
            Nest(1, roi).interpolate_from_parent(np.zeros((50, 50)))

    @given(st.integers(1, 5), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_interpolation_within_parent_range(self, r, w, h):
        rng = np.random.default_rng(0)
        parent = rng.uniform(0, 1, (30, 30))
        n = Nest(1, Rect(3, 4, w, h), refinement=r)
        fine = n.interpolate_from_parent(parent)
        assert fine.min() >= parent.min() - 1e-12
        assert fine.max() <= parent.max() + 1e-12


class TestNestTracker:
    def test_births(self):
        t = NestTracker()
        retained, deleted, new = t.update([Rect(0, 0, 10, 10), Rect(20, 20, 5, 5)])
        assert retained == [] and deleted == [] and len(new) == 2
        assert sorted(t.live) == [1, 2]

    def test_retention_by_overlap(self):
        t = NestTracker()
        t.update([Rect(0, 0, 10, 10)])
        retained, deleted, new = t.update([Rect(1, 1, 10, 10)])
        assert len(retained) == 1 and retained[0].nest_id == 1
        assert deleted == [] and new == []
        assert t.live[1].roi == Rect(1, 1, 10, 10)

    def test_deletion(self):
        t = NestTracker()
        t.update([Rect(0, 0, 10, 10)])
        retained, deleted, new = t.update([])
        assert deleted == [1] and t.live == {}

    def test_replacement_far_away(self):
        t = NestTracker()
        t.update([Rect(0, 0, 10, 10)])
        retained, deleted, new = t.update([Rect(50, 50, 10, 10)])
        assert deleted == [1] and len(new) == 1 and new[0].nest_id == 2

    def test_greedy_best_match(self):
        t = NestTracker()
        t.update([Rect(0, 0, 10, 10), Rect(8, 0, 10, 10)])
        # one new ROI overlapping both: matches the better (first) one only
        retained, deleted, new = t.update([Rect(0, 0, 11, 10)])
        assert len(retained) == 1 and retained[0].nest_id == 1
        assert deleted == [2] and new == []

    def test_ids_never_reused(self):
        t = NestTracker()
        t.update([Rect(0, 0, 5, 5)])
        t.update([])
        _, _, new = t.update([Rect(0, 0, 5, 5)])
        assert new[0].nest_id == 2

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            NestTracker(iou_threshold=0.0)
        with pytest.raises(ValueError):
            NestTracker(matcher="nearest")

    def test_centroid_matcher_tracks_fast_mover(self):
        # a tall ROI jumped by its full width: zero IoU overlap, but the
        # centres are still within half the diagonal
        t_iou = NestTracker(matcher="iou")
        t_cen = NestTracker(matcher="centroid")
        for t in (t_iou, t_cen):
            t.update([Rect(0, 0, 10, 30)])
        moved = [Rect(10, 0, 10, 30)]
        _, deleted_iou, new_iou = t_iou.update(moved)
        retained_cen, deleted_cen, _ = t_cen.update(moved)
        assert deleted_iou == [1] and len(new_iou) == 1  # identity lost
        assert deleted_cen == [] and retained_cen[0].nest_id == 1  # kept

    def test_centroid_matcher_rejects_distant(self):
        t = NestTracker(matcher="centroid")
        t.update([Rect(0, 0, 10, 10)])
        _, deleted, new = t.update([Rect(40, 40, 10, 10)])
        assert deleted == [1] and len(new) == 1


class TestScenarios:
    def test_mumbai_produces_multiple_systems(self):
        sc = mumbai_2005_scenario(
            seed=1, n_steps=30,
            config=DomainConfig(nx=128, ny=96, sim_grid=ProcessorGrid(8, 8)),
        )
        m = WrfLikeModel(sc.config, sc.birth_fn, sc.initial_systems)
        counts = []
        for _ in range(30):
            m.step()
            counts.append(len(m.systems))
        assert max(counts) >= 3
        assert min(counts) >= 1  # the Mumbai cell persists

    def test_scenarios_deterministic(self):
        a = mumbai_2005_scenario(seed=7)
        b = mumbai_2005_scenario(seed=7)
        assert [s.x for s in a.initial_systems] == [s.x for s in b.initial_systems]
