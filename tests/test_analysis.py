"""Tests for repro.analysis: split files, NNC (Algorithm 2), PDA (Algorithm 1)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    NNCConfig,
    QcloudInfo,
    SplitBatch,
    SplitFile,
    cluster_bounding_rect,
    clusters_to_rectangles,
    nearest_neighbour_clustering,
    parallel_data_analysis,
    simple_two_hop_clustering,
)
from repro.analysis.nnc import _distance_ok
from repro.analysis.pda import _assign_files
from repro.grid import ProcessorGrid, Rect
from repro.grid.block import split_evenly


def row(bx, by, qcloud=1.0, olr_fraction=0.5):
    """One ``qcloudinfo`` row: a subdomain's block and its summary."""
    return bx, by, qcloud, olr_fraction


def make_info(rows, size=10):
    """The rows, in the given order, over ``size x size``-point tiles."""
    bx, by, qcloud, fraction = (list(c) for c in zip(*rows)) if rows else ([],) * 4
    n = max([*bx, *by], default=0) + 1
    bounds = tuple(range(0, size * (n + 1), size))
    file_index = [y * n + x for x, y in zip(bx, by)]
    return QcloudInfo(file_index, bx, by, qcloud, fraction, bounds, bounds)


def blocks_of(info, cluster):
    """A cluster's members as ``(block_x, block_y)`` pairs, in join order."""
    return list(zip(info.block_x[cluster].tolist(), info.block_y[cluster].tolist()))


def make_split_file(bx, by, qcloud_value, olr_value, size=10):
    return SplitFile(
        file_index=by * 4 + bx,
        block_x=bx,
        block_y=by,
        extent=Rect(bx * size, by * size, size, size),
        qcloud=np.full((size, size), qcloud_value),
        olr=np.full((size, size), olr_value),
    )


def cloud_batch(grid, cloudy_blocks, size=10):
    """One ``size x size`` tile per rank of ``grid``: high cloud under low
    OLR in ``cloudy_blocks``, clear sky elsewhere."""
    bounds = (
        tuple(range(0, size * (grid.px + 1), size)),
        tuple(range(0, size * (grid.py + 1), size)),
    )
    qcloud = np.zeros((size * grid.py, size * grid.px))
    olr = np.full_like(qcloud, 280.0)
    for bx, by in cloudy_blocks:
        window = (slice(by * size, (by + 1) * size), slice(bx * size, (bx + 1) * size))
        qcloud[window] = 0.01
        olr[window] = 150.0
    return SplitBatch(qcloud, olr, *bounds, np.zeros(grid.nprocs, dtype=bool))


def lose(batch, *ranks):
    """``batch`` with the files of ``ranks`` missing."""
    missing = batch.missing.copy()
    missing[list(ranks)] = True
    return dataclasses.replace(batch, missing=missing)


class TestSplitBatch:
    def test_validation(self):
        q = np.zeros((4, 6))
        none = np.zeros(2, dtype=bool)
        SplitBatch(q, q, (0, 3, 6), (0, 4), none)
        for xb, yb in [((0, 3, 5), (0, 4)), ((1, 3, 6), (0, 4)), ((0, 3, 3, 6), (0, 4))]:
            with pytest.raises(ValueError):
                SplitBatch(q, q, xb, yb, np.zeros((len(xb) - 1) * (len(yb) - 1), bool))
        with pytest.raises(ValueError):
            SplitBatch(q, np.zeros((4, 5)), (0, 3, 6), (0, 4), none)
        with pytest.raises(ValueError):
            SplitBatch(q, q, (0, 3, 6), (0, 4), np.zeros(3, dtype=bool))
        with pytest.raises(ValueError):
            SplitBatch(q, q, (0, 3, 6), (0, 4), none, {1: (np.zeros((4, 2)), np.zeros((4, 3)))})
        with pytest.raises(ValueError):
            SplitBatch(q, q, (0, 3, 6), (0, 4), none, {2: (np.zeros((4, 3)), np.zeros((4, 3)))})

    def test_file_is_the_tile(self):
        # 7 x 5 over 2 x 2: uneven tiles, the larger chunks first
        q = np.arange(35.0).reshape(5, 7)
        o = -q
        batch = SplitBatch(q, o, (0, 4, 7), (0, 3, 5), np.array([False, False, True, False]))
        f = batch.file(1)
        assert (f.file_index, f.block_x, f.block_y, f.extent) == (1, 1, 0, Rect(4, 0, 3, 3))
        assert np.array_equal(f.qcloud, q[0:3, 4:7]) and np.shares_memory(f.qcloud, q)
        assert batch.file(2) is None
        assert batch.areas.tolist() == [12, 9, 8, 6]
        poisoned = np.full((2, 3), np.nan)
        damaged = dataclasses.replace(batch, damaged={3: (poisoned, o[3:5, 4:7])})
        assert damaged.file(3).qcloud is poisoned
        assert len(damaged) == 4


class TestSplitFile:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SplitFile(0, 0, 0, Rect(0, 0, 4, 4), np.zeros((3, 4)), np.zeros((4, 4)))

    def test_summarise_thresholds_olr(self):
        f = make_split_file(0, 0, qcloud_value=2.0, olr_value=150.0)
        qcloud, olr_fraction = f.summarise(olr_threshold=200.0)
        assert qcloud == pytest.approx(2.0 * 100)
        assert olr_fraction == 1.0

    def test_summarise_clear_sky(self):
        f = make_split_file(0, 0, qcloud_value=2.0, olr_value=280.0)
        assert f.summarise(olr_threshold=200.0) == (0.0, 0.0)

    def test_summarise_partial(self):
        f = make_split_file(0, 0, 1.0, 150.0, size=4)
        olr = f.olr.copy()
        olr[:2, :] = 250.0  # half the subdomain is clear
        f2 = SplitFile(0, 0, 0, f.extent, f.qcloud, olr)
        qcloud, olr_fraction = f2.summarise(200.0)
        assert olr_fraction == pytest.approx(0.5)
        assert qcloud == pytest.approx(8.0)


class TestQcloudInfo:
    def test_validation(self):
        bounds = (0, 10, 20)
        QcloudInfo([0, 3], [0, 1], [0, 1], [1.0, 0.5], [0.5, 0.5], bounds, bounds)
        with pytest.raises(ValueError):  # a column one row short
            QcloudInfo([0], [0, 1], [0, 1], [1.0, 0.5], [0.5, 0.5], bounds, bounds)
        with pytest.raises(ValueError):  # a block outside the grid
            QcloudInfo([0], [2], [0], [1.0], [0.5], bounds, bounds)
        with pytest.raises(ValueError):
            QcloudInfo([0], [-1], [0], [1.0], [0.5], bounds, bounds)
        with pytest.raises(ValueError):  # bounds that do not start at 0
            QcloudInfo([0], [0], [0], [1.0], [0.5], (5, 10), bounds)

    def test_columns_are_private_and_read_only(self):
        qcloud = np.array([2.0, 1.0])
        info = QcloudInfo([0, 1], [0, 1], [0, 0], qcloud, [0.5, 0.5], (0, 4, 8), (0, 4))
        qcloud[0] = 0.0
        assert info.qcloud.tolist() == [2.0, 1.0]
        with pytest.raises(ValueError):
            info.qcloud[0] = 3.0
        assert info.block_x.dtype == np.int64 and len(info) == 2

    def test_sort_gathered_keeps_gather_order_among_ties(self):
        info = QcloudInfo.sort_gathered(
            [7, 5, 9, 4], [0, 1, 2, 3], [0, 0, 0, 0], [1.0, 2.0, 1.0, 2.0],
            [0.1, 0.2, 0.3, 0.4], (0, 1, 2, 3, 4), (0, 1),
        )
        assert info.file_index.tolist() == [5, 4, 7, 9]
        assert info.olr_fraction.tolist() == [0.2, 0.4, 0.1, 0.3]


class TestHopDistance:
    def test_chebyshev(self):
        # DISTANCE's hop count is the Chebyshev distance between blocks
        info = make_info([row(2, 2), row(3, 3), row(4, 2), row(2, 2)])
        assert _distance_ok(info, 1, 0, [0], 1, None)  # diagonal = 1 hop
        assert _distance_ok(info, 2, 0, [0], 2, None)
        assert not _distance_ok(info, 2, 0, [0], 1, None)
        assert _distance_ok(info, 3, 0, [0], 0, None)


class TestNNC:
    def test_adjacent_same_cluster(self):
        clusters = nearest_neighbour_clustering(make_info([row(0, 0), row(1, 0)]))
        assert [c.tolist() for c in clusters] == [[0, 1]]

    def test_far_apart_two_clusters(self):
        clusters = nearest_neighbour_clustering(make_info([row(0, 0), row(6, 6)]))
        assert len(clusters) == 2

    def test_two_hop_joins(self):
        clusters = nearest_neighbour_clustering(make_info([row(0, 0), row(2, 0)]))
        assert len(clusters) == 1

    def test_three_hops_does_not_join(self):
        clusters = nearest_neighbour_clustering(make_info([row(0, 0), row(3, 0)]))
        assert len(clusters) == 2

    def test_below_threshold_skipped(self):
        info = make_info([row(0, 0, qcloud=1e-6), row(1, 0)])
        clusters = nearest_neighbour_clustering(info)
        assert [c.tolist() for c in clusters] == [[1]]

    def test_low_olr_fraction_skipped(self):
        info = make_info([row(0, 0, olr_fraction=1e-6)])
        assert nearest_neighbour_clustering(info) == []

    def test_mean_deviation_guard(self):
        # second element adjacent but with wildly different qcloud: rejected
        info = make_info([row(0, 0, qcloud=10.0), row(1, 0, qcloud=1.0)])
        assert len(nearest_neighbour_clustering(info)) == 2
        # within 30%: accepted
        info = make_info([row(0, 0, qcloud=10.0), row(1, 0, qcloud=9.0)])
        assert len(nearest_neighbour_clustering(info)) == 1

    def test_one_hop_preferred_over_two_hop(self):
        # element at (2,0) is 1 hop from B(3,0) and 2 hops from A(0,0);
        # A comes first in the list but the 1-hop pass must win.
        info = make_info([row(0, 0, 5.0), row(3, 0, 4.9), row(2, 0, 4.8)])
        clusters = nearest_neighbour_clustering(info)
        assert [blocks_of(info, c) for c in clusters] == [[(0, 0)], [(3, 0), (2, 0)]]

    def test_clusters_spatially_disjoint_on_grid(self):
        # a dense random field: the paper's property is that NNC bounding
        # rectangles do not overlap (Fig 9b) while simple 2-hop ones may
        rng = np.random.default_rng(3)
        rows = sorted(
            (
                row(int(x), int(y), qcloud=float(q))
                for x, y, q in zip(
                    rng.integers(0, 10, 40),
                    rng.integers(0, 10, 40),
                    rng.uniform(1, 2, 40),
                )
            ),
            key=lambda r: -r[2],
        )
        clusters = nearest_neighbour_clustering(make_info(rows))
        # every element lands in exactly one cluster
        assert sorted(np.concatenate(clusters).tolist()) == list(range(len(rows)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NNCConfig(mean_deviation=-0.1)
        with pytest.raises(ValueError):
            NNCConfig(max_hops=0)


class TestSimpleTwoHop:
    def test_no_mean_guard(self):
        # wildly different qcloud still joins in the baseline
        info = make_info([row(0, 0, qcloud=10.0), row(1, 0, qcloud=1.0)])
        assert len(simple_two_hop_clustering(info)) == 1

    def test_chains_grow_unbounded(self):
        # a long chain of 2-hop steps collapses into one cluster
        info = make_info([row(2 * i, 0) for i in range(6)])
        assert len(simple_two_hop_clustering(info)) == 1
        # the paper's NNC (2-hop max from *any member*) also chains, but the
        # mean guard can stop it; with equal qclouds it also chains:
        assert len(nearest_neighbour_clustering(info)) == 1


class TestRegions:
    def test_bounding_rect(self):
        info = make_info([row(0, 0), row(1, 1)])
        assert cluster_bounding_rect(info, np.array([0, 1])) == Rect(0, 0, 20, 20)
        # uneven tiles: the rectangle runs along the record's tile bounds
        uneven = QcloudInfo(
            [0, 1], [1, 2], [0, 1], [1.0, 1.0], [0.5, 0.5], (0, 7, 13, 20), (0, 5, 9)
        )
        assert cluster_bounding_rect(uneven, np.array([1, 0])) == Rect(7, 0, 13, 9)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            cluster_bounding_rect(make_info([row(0, 0)]), np.array([], dtype=np.int64))

    def test_every_cluster_keeps_its_rectangle(self):
        info = make_info([row(0, 0), row(5, 5), row(6, 5)])
        clusters = [np.array([0]), np.array([], dtype=np.int64), np.array([1, 2])]
        assert clusters_to_rectangles(info, clusters) == [
            Rect(0, 0, 10, 10),
            Rect(50, 50, 20, 10),
        ]


class TestPDA:
    def _files(self, grid, cloudy_blocks):
        """Split files over `grid` with high cloud in `cloudy_blocks`."""
        return cloud_batch(grid, cloudy_blocks)

    def test_detects_single_region(self):
        grid = ProcessorGrid(4, 4)
        files = self._files(grid, {(1, 1), (2, 1), (1, 2), (2, 2)})
        result = parallel_data_analysis(files, grid, n_analysis=4)
        assert len(result.rectangles) == 1
        assert result.rectangles[0] == Rect(10, 10, 20, 20)

    def test_detects_two_regions(self):
        grid = ProcessorGrid(8, 8)
        files = self._files(grid, {(0, 0), (1, 0), (6, 6), (7, 7)})
        result = parallel_data_analysis(files, grid, n_analysis=4)
        assert len(result.rectangles) == 2

    def test_no_clouds_no_rectangles(self):
        grid = ProcessorGrid(4, 4)
        files = self._files(grid, set())
        result = parallel_data_analysis(files, grid, n_analysis=4)
        assert result.rectangles == []
        assert result.gathered_items == 0

    def test_result_independent_of_n_analysis(self):
        grid = ProcessorGrid(8, 8)
        cloudy = {(1, 1), (2, 1), (5, 6), (6, 6)}
        results = [
            parallel_data_analysis(self._files(grid, cloudy), grid, n)
            for n in (1, 4, 16, 64)
        ]
        rect_sets = [sorted(map(str, r.rectangles)) for r in results]
        assert all(rs == rect_sets[0] for rs in rect_sets)

    def test_wrong_file_count(self):
        grid = ProcessorGrid(4, 4)
        with pytest.raises(ValueError):
            parallel_data_analysis(self._files(ProcessorGrid(4, 3), set()), grid, 4)

    def test_bad_n_analysis(self):
        grid = ProcessorGrid(4, 4)
        files = self._files(grid, set())
        with pytest.raises(ValueError):
            parallel_data_analysis(files, grid, 0)
        with pytest.raises(ValueError):
            parallel_data_analysis(files, grid, 17)

    def test_summaries_sorted(self):
        grid = ProcessorGrid(4, 4)
        files = self._files(grid, {(0, 0), (2, 2), (3, 3)})
        result = parallel_data_analysis(files, grid, 4)
        qs = result.summaries.qcloud.tolist()
        assert qs == sorted(qs, reverse=True)


class TestPDADegraded:
    """Graceful degradation: missing and corrupt files."""

    def _files(self, grid, cloudy_blocks):
        return cloud_batch(grid, cloudy_blocks)

    def test_complete_run_is_not_partial(self):
        grid = ProcessorGrid(4, 4)
        result = parallel_data_analysis(self._files(grid, {(1, 1)}), grid, 4)
        assert not result.partial
        assert result.coverage == pytest.approx(1.0)
        assert result.n_files_missing == result.n_files_corrupt == 0

    def test_missing_file_flags_partial_but_still_detects(self):
        grid = ProcessorGrid(4, 4)
        cloudy = {(1, 1), (2, 1), (1, 2), (2, 2)}
        # a non-cloudy writer crashed
        files = lose(self._files(grid, cloudy), grid.rank(3, 3))
        result = parallel_data_analysis(files, grid, 4)
        assert result.partial and result.n_files_missing == 1
        assert result.coverage == pytest.approx(15 / 16)
        assert len(result.rectangles) == 1  # the ROI is still found

    def test_corrupt_file_excluded_and_counted(self):
        grid = ProcessorGrid(4, 4)
        files = self._files(grid, {(0, 0), (3, 3)})
        qcloud, olr = (a.copy() for a in files.tile_fields(grid.rank(0, 0)))
        qcloud[0, 0] = np.nan
        files = dataclasses.replace(files, damaged={grid.rank(0, 0): (qcloud, olr)})
        result = parallel_data_analysis(files, grid, 4)
        assert result.partial and result.n_files_corrupt == 1
        # the poisoned subdomain cannot contribute a summary
        assert (0, 0) not in blocks_of(result.summaries, np.arange(result.gathered_items))

    def test_low_olr_fraction_renormalised_over_reporting_area(self):
        grid = ProcessorGrid(2, 2)
        files = self._files(grid, {(0, 0)})  # 1 of 4 equal blocks cloudy
        full = parallel_data_analysis(files, grid, 1)
        assert full.low_olr_fraction == pytest.approx(0.25)
        files = lose(files, grid.rank(1, 1))  # lose a clear block
        degraded = parallel_data_analysis(files, grid, 1)
        assert degraded.low_olr_fraction == pytest.approx(1 / 3)
        assert degraded.coverage == pytest.approx(0.75)

    def test_all_files_missing_degrades_to_empty(self):
        grid = ProcessorGrid(2, 2)
        result = parallel_data_analysis(lose(self._files(grid, set()), 0, 1, 2, 3), grid, 1)
        assert result.partial and result.n_files_missing == 4
        assert result.rectangles == [] and result.low_olr_fraction == 0.0
        assert result.coverage == 0.0  # nothing reported, nothing covered

    @pytest.mark.parametrize("lost", [0, 11])
    def test_coverage_is_the_reported_area_fraction(self, lost):
        # 67 x 45 over 4 x 3: rank 0's tile is 17 x 15, rank 11's 16 x 15
        grid = ProcessorGrid(4, 3)
        q = np.full((45, 67), 0.01)
        batch = SplitBatch(
            q, np.full_like(q, 150.0), (0, 17, 34, 51, 67), (0, 15, 30, 45),
            np.zeros(12, dtype=bool),
        )
        result = parallel_data_analysis(lose(batch, lost), grid, 4)
        reporting_area = 67 * 45 - batch.extent(lost).area
        assert result.partial and result.n_files_missing == 1
        assert result.coverage == reporting_area / (67 * 45)
        assert result.low_olr_fraction == 1.0


def bucket_by_formula(files, sim_grid, n_analysis):
    """Algorithm 1's division of files, one boundary count per file."""
    ag = ProcessorGrid.square_like(n_analysis)
    xb = split_evenly(sim_grid.px, ag.px)
    yb = split_evenly(sim_grid.py, ag.py)
    buckets = [[] for _ in range(n_analysis)]
    for rank in range(len(files)):
        f = files.file(rank)
        if f is not None:
            ax = int((xb[1:] <= f.block_x).sum())
            ay = int((yb[1:] <= f.block_y).sum())
            buckets[ay * ag.px + ax].append(f.file_index)
    return buckets


def tiny_files(grid, missing=()):
    """One 1x1 split file per rank of ``grid``; ``missing`` ranks are lost."""
    missing_mask = np.isin(np.arange(grid.nprocs), list(missing))
    field = np.zeros((grid.py, grid.px))
    return SplitBatch(
        field, field, tuple(range(grid.px + 1)), tuple(range(grid.py + 1)), missing_mask
    )


def same_objects(a, b):
    """The same files, by rank, in the same buckets and order."""
    return [bucket.tolist() for bucket in a] == b


class TestAssignFiles:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_file_formula(self, data):
        grid = ProcessorGrid(
            data.draw(st.integers(1, 9), label="px"), data.draw(st.integers(1, 9), label="py")
        )
        n_analysis = data.draw(st.integers(1, grid.nprocs), label="n_analysis")
        missing = data.draw(
            st.sets(st.integers(0, grid.nprocs - 1), max_size=grid.nprocs), label="missing"
        )
        files = tiny_files(grid, missing)
        assert same_objects(
            _assign_files(files, grid, n_analysis), bucket_by_formula(files, grid, n_analysis)
        )

    @pytest.mark.parametrize("px,py,n_analysis", [(1, 8, 4), (2, 9, 9), (3, 12, 16)])
    def test_analysis_grid_wider_than_sim_grid(self, px, py, n_analysis):
        grid = ProcessorGrid(px, py)
        assert ProcessorGrid.square_like(n_analysis).px > grid.px
        files = tiny_files(grid, missing={0, grid.nprocs - 1})
        buckets = _assign_files(files, grid, n_analysis)
        assert same_objects(buckets, bucket_by_formula(files, grid, n_analysis))
        assert sum(map(len, buckets)) == grid.nprocs - 2

    def test_all_missing_leaves_every_bucket_empty(self):
        grid = ProcessorGrid(4, 4)
        assert same_objects(
            _assign_files(tiny_files(grid, missing=range(16)), grid, 4), [[], [], [], []]
        )
