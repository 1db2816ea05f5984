"""Tests for repro.grid: rectangles, process grid, blocks, overlap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import (
    BlockDecomposition,
    ProcessorGrid,
    Rect,
    split_evenly,
    transfer_matrix,
)


def dense_owners(d, grid_px):
    """Global owner rank of every nest point, shaped ``(ny, nx)``."""
    owners = np.empty((d.ny, d.nx), dtype=np.int64)
    for i in range(d.proc_rect.w):
        for j in range(d.proc_rect.h):
            blk = d.block_of(i, j)
            rank = (d.proc_rect.y0 + j) * grid_px + d.proc_rect.x0 + i
            owners[blk.y0 : blk.y1, blk.x0 : blk.x1] = rank
    return owners


class TestRect:
    def test_area_and_edges(self):
        r = Rect(2, 3, 4, 5)
        assert r.area == 20 and r.x1 == 6 and r.y1 == 8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, -1, 2)

    def test_intersect(self):
        a = Rect(0, 0, 4, 4)
        b = Rect(2, 2, 4, 4)
        assert a.intersect(b) == Rect(2, 2, 2, 2)

    def test_disjoint_intersection_empty(self):
        assert Rect(0, 0, 2, 2).intersect(Rect(5, 5, 2, 2)).is_empty

    def test_contains(self):
        assert Rect(0, 0, 10, 10).contains(Rect(2, 2, 3, 3))
        assert not Rect(0, 0, 10, 10).contains(Rect(8, 8, 5, 5))
        assert Rect(0, 0, 1, 1).contains(Rect(5, 5, 0, 0))  # empty always fits

    def test_contains_point(self):
        r = Rect(1, 1, 2, 2)
        assert r.contains_point(1, 1) and r.contains_point(2, 2)
        assert not r.contains_point(3, 3)  # half-open

    def test_iou(self):
        a, b = Rect(0, 0, 2, 2), Rect(1, 0, 2, 2)
        assert a.iou(b) == pytest.approx(2 / 6)
        assert a.iou(a) == 1.0
        assert a.iou(Rect(9, 9, 1, 1)) == 0.0

    def test_splits(self):
        r = Rect(0, 0, 10, 6)
        l, rr = r.split_vertical(3)
        assert l == Rect(0, 0, 3, 6) and rr == Rect(3, 0, 7, 6)
        t, b = r.split_horizontal(2)
        assert t == Rect(0, 0, 10, 2) and b == Rect(0, 2, 10, 4)

    def test_split_bounds(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 4, 4).split_vertical(5)

    def test_aspect_ratio(self):
        assert Rect(0, 0, 4, 4).aspect_ratio == 1.0
        assert Rect(0, 0, 8, 2).aspect_ratio == 4.0
        assert Rect(0, 0, 0, 0).aspect_ratio == float("inf")

    @given(st.tuples(*[st.integers(0, 20)] * 8))
    @settings(max_examples=100, deadline=None)
    def test_intersection_commutes_and_bounds(self, v):
        a = Rect(v[0], v[1], v[2], v[3])
        b = Rect(v[4], v[5], v[6], v[7])
        i1, i2 = a.intersect(b), b.intersect(a)
        assert i1.area == i2.area
        assert i1.area <= min(a.area, b.area)

    @given(
        st.tuples(
            *[st.integers(-10, 20), st.integers(-10, 20)] * 2,
            *[st.integers(0, 12), st.integers(0, 12)] * 2,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_overlaps_is_a_positive_intersection(self, v):
        """Empty rectangles and shared edges included."""
        a, b = Rect(v[0], v[1], v[4], v[5]), Rect(v[2], v[3], v[6], v[7])
        assert a.overlaps(b) is b.overlaps(a) is (a.intersect(b).area > 0)


class TestProcessorGrid:
    def test_table1_rank_convention(self):
        # Table I pins down the convention: start rank 429 = (x=13, y=13)
        g = ProcessorGrid(32, 32)
        assert g.rank(13, 13) == 429
        assert g.rank(0, 8) == 256

    def test_square_like(self):
        assert ProcessorGrid.square_like(1024) == ProcessorGrid(32, 32)
        assert ProcessorGrid.square_like(512) == ProcessorGrid(16, 32)
        assert ProcessorGrid.square_like(7) == ProcessorGrid(1, 7)

    def test_coords_roundtrip(self):
        g = ProcessorGrid(5, 3)
        ranks = np.arange(g.nprocs)
        x, y = g.coords(ranks)
        assert np.array_equal(y * 5 + x, ranks)

    def test_ranks_in(self):
        g = ProcessorGrid(4, 4)
        assert g.ranks_in(Rect(1, 1, 2, 2)).tolist() == [5, 6, 9, 10]

    def test_out_of_grid_rect(self):
        g = ProcessorGrid(4, 4)
        with pytest.raises(ValueError):
            g.start_rank(Rect(3, 3, 2, 2))

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            ProcessorGrid(0, 4)


class TestSplitEvenly:
    def test_exact(self):
        assert split_evenly(8, 4).tolist() == [0, 2, 4, 6, 8]

    def test_remainder_leading(self):
        assert split_evenly(10, 4).tolist() == [0, 3, 6, 8, 10]

    def test_more_parts_than_items(self):
        b = split_evenly(2, 5)
        assert b[-1] == 2 and len(b) == 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_evenly(5, 0)
        with pytest.raises(ValueError):
            split_evenly(-1, 2)

    @given(st.integers(0, 500), st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_properties(self, n, parts):
        b = split_evenly(n, parts)
        sizes = np.diff(b)
        assert b[0] == 0 and b[-1] == n and len(b) == parts + 1
        assert sizes.min() >= 0 and sizes.max() - sizes.min() <= 1


class TestBlockDecomposition:
    def test_paper_fig3(self):
        # Fig 3: a nest on a 4x4 rect redistributed to a 2x2 rect; each new
        # owner previously owned by 4 senders.
        g = ProcessorGrid(8, 8)
        old = BlockDecomposition(16, 16, Rect(0, 0, 4, 4))
        new = BlockDecomposition(16, 16, Rect(4, 0, 2, 2))
        t = transfer_matrix(old, new, g.px)
        recv_counts = {}
        for s, r in zip(t.senders, t.receivers):
            recv_counts.setdefault(int(r), set()).add(int(s))
        assert all(len(v) == 4 for v in recv_counts.values())

    def test_block_of(self):
        d = BlockDecomposition(10, 6, Rect(0, 0, 3, 2))
        assert d.block_of(0, 0) == Rect(0, 0, 4, 3)  # 10 -> 4,3,3
        assert d.block_of(2, 1) == Rect(7, 3, 3, 3)

    def test_block_out_of_range(self):
        d = BlockDecomposition(4, 4, Rect(0, 0, 2, 2))
        with pytest.raises(ValueError):
            d.block_of(2, 0)

    def test_invalid_nest(self):
        with pytest.raises(ValueError):
            BlockDecomposition(0, 4, Rect(0, 0, 2, 2))
        with pytest.raises(ValueError):
            BlockDecomposition(4, 4, Rect(0, 0, 0, 0))


class TestTransferMatrix:
    def test_conservation(self):
        g = ProcessorGrid(16, 16)
        old = BlockDecomposition(33, 47, Rect(0, 0, 5, 3))
        new = BlockDecomposition(33, 47, Rect(2, 1, 4, 6))
        t = transfer_matrix(old, new, g.px)
        assert int(t.points.sum()) == 33 * 47
        assert t.local_points + t.network_points == 33 * 47

    def test_identity_move_all_local(self):
        g = ProcessorGrid(8, 8)
        d = BlockDecomposition(20, 20, Rect(1, 1, 3, 3))
        t = transfer_matrix(d, d, g.px)
        assert t.network_points == 0
        assert t.overlap_fraction == 1.0

    def test_disjoint_rects_no_overlap(self):
        g = ProcessorGrid(8, 8)
        old = BlockDecomposition(20, 20, Rect(0, 0, 3, 3))
        new = BlockDecomposition(20, 20, Rect(4, 4, 3, 3))
        assert transfer_matrix(old, new, g.px).overlap_fraction == 0.0

    def test_matches_dense_ownership(self):
        # cross-check the interval algebra against brute-force owner maps
        g = ProcessorGrid(12, 12)
        old = BlockDecomposition(17, 23, Rect(0, 2, 4, 5))
        new = BlockDecomposition(17, 23, Rect(2, 0, 6, 3))
        t = transfer_matrix(old, new, g.px)
        om = dense_owners(old, g.px)
        nm = dense_owners(new, g.px)
        dense_overlap = float((om == nm).mean())
        assert t.overlap_fraction == pytest.approx(dense_overlap)
        # dense pair counting
        pairs = {}
        for s, r in zip(om.ravel(), nm.ravel()):
            pairs[(int(s), int(r))] = pairs.get((int(s), int(r)), 0) + 1
        ours = {
            (int(s), int(r)): int(p)
            for s, r, p in zip(t.senders, t.receivers, t.points)
        }
        assert ours == pairs

    def test_mismatched_nests_rejected(self):
        old = BlockDecomposition(10, 10, Rect(0, 0, 2, 2))
        new = BlockDecomposition(11, 10, Rect(0, 0, 2, 2))
        with pytest.raises(ValueError):
            transfer_matrix(old, new, 8)

    @given(
        st.integers(8, 80),
        st.integers(8, 80),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_property(self, nx, ny, w1, h1, w2, h2, ox, oy):
        g = ProcessorGrid(12, 12)
        old = BlockDecomposition(nx, ny, Rect(0, 0, w1, h1))
        new = BlockDecomposition(nx, ny, Rect(ox, oy, w2, h2))
        t = transfer_matrix(old, new, g.px)
        assert int(t.points.sum()) == nx * ny
        assert 0.0 <= t.overlap_fraction <= 1.0
        # every sender must be in the old rect, every receiver in the new
        sx, sy = g.coords(t.senders)
        assert np.all((sx >= 0) & (sx < w1) & (sy >= 0) & (sy < h1))
        rx, ry = g.coords(t.receivers)
        assert np.all((rx >= ox) & (rx < ox + w2) & (ry >= oy) & (ry < oy + h2))
