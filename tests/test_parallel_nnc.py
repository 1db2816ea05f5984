"""Tests for the parallel NNC extension (paper's stated future work)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    QcloudInfo,
    count_distance_evaluations,
    nearest_neighbour_clustering,
    parallel_nnc,
)
from repro.analysis.nnc import _nearest_neighbour_clustering_reference
from repro.grid import ProcessorGrid


def make_summary(bx, by, qcloud=1.0, olr_fraction=0.5):
    """One ``qcloudinfo`` row: a subdomain's block and its summary."""
    return bx, by, qcloud, olr_fraction


def blob(cx, cy, n, qcloud, spread=1):
    """A compact blob of `n` adjacent subdomains around (cx, cy)."""
    out = []
    k = 0
    for dy in range(-spread, spread + 1):
        for dx in range(-spread, spread + 1):
            if k >= n:
                break
            out.append(make_summary(cx + dx, cy + dy, qcloud + 0.001 * k))
            k += 1
    return out


def sort_input(items):
    """The rows as a ``qcloudinfo`` record sorted by decreasing QCLOUD."""
    bx, by, qcloud, fraction = ([list(c) for c in zip(*items)] if items else [[]] * 4)
    bounds = tuple(range(0, 10 * (max([*bx, *by], default=0) + 2), 10))
    return QcloudInfo.sort_gathered(
        np.zeros(len(items), dtype=np.int64), bx, by, qcloud, fraction, bounds, bounds
    )


def canonical(info, clusters):
    """Cluster set as frozen sets of block coordinates (order-free)."""
    return {
        frozenset(zip(info.block_x[c].tolist(), info.block_y[c].tolist()))
        for c in clusters
    }


class TestParallelNNC:
    def test_single_worker_equals_sequential(self):
        items = sort_input(blob(2, 2, 5, 1.0) + blob(12, 12, 4, 0.8))
        seq = nearest_neighbour_clustering(items)
        par = parallel_nnc(items, n_workers=1)
        assert canonical(items, par.clusters) == canonical(items, seq)

    def test_separated_blobs_any_worker_count(self):
        items = sort_input(
            blob(2, 2, 5, 1.0) + blob(20, 3, 4, 0.9) + blob(10, 20, 6, 0.7)
        )
        seq = canonical(items, nearest_neighbour_clustering(items))
        for n in (1, 2, 4, 9, 16):
            par = parallel_nnc(items, n_workers=n, sim_grid=ProcessorGrid(24, 24))
            assert canonical(items, par.clusters) == seq, f"n_workers={n}"

    def test_blob_split_across_tiles_is_merged(self):
        # a blob straddling the boundary of a 2x2 tiling of a 16x16 grid
        items = sort_input(blob(7, 7, 9, 1.0, spread=1))  # spans blocks 6..8
        par = parallel_nnc(items, n_workers=4, sim_grid=ProcessorGrid(16, 16))
        assert len(par.clusters) == 1
        assert len(par.clusters[0]) == 9

    def test_incompatible_means_not_merged(self):
        # two adjacent blobs with wildly different intensity stay separate
        items = sort_input(blob(7, 7, 3, 10.0, spread=0) + blob(9, 7, 3, 1.0, spread=0))
        # spread=0 puts 1 element each; build manually for adjacency
        a = [make_summary(7, 7, 10.0), make_summary(8, 7, 9.9)]
        b = [make_summary(10, 7, 1.0), make_summary(11, 7, 1.01)]
        items = sort_input(a + b)
        par = parallel_nnc(items, n_workers=4, sim_grid=ProcessorGrid(16, 16))
        assert len(par.clusters) == 2

    def test_every_element_in_exactly_one_cluster(self):
        rng = np.random.default_rng(0)
        items = sorted(
            (
                make_summary(int(x), int(y), float(q))
                for x, y, q in zip(
                    rng.integers(0, 20, 50),
                    rng.integers(0, 20, 50),
                    rng.uniform(0.5, 2.0, 50),
                )
            ),
            key=lambda r: -r[2],
        )
        # dedupe positions (two rows on one block are legal but make
        # counting ambiguous)
        first_at = {}
        for r in items:
            first_at.setdefault(r[:2], r)
        unique = sort_input(list(first_at.values()))
        par = parallel_nnc(unique, n_workers=4, sim_grid=ProcessorGrid(20, 20))
        total = sum(len(c) for c in par.clusters)
        assert total == len(unique)

    def test_empty_input(self):
        par = parallel_nnc(sort_input([]), n_workers=4)
        assert par.clusters == [] and par.critical_path_ops == 0

    def test_thresholds_respected(self):
        items = [make_summary(0, 0, qcloud=1e-9), make_summary(1, 1, 1.0)]
        par = parallel_nnc(sort_input(items), n_workers=2)
        assert sum(len(c) for c in par.clusters) == 1

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            parallel_nnc(sort_input([]), n_workers=0)

    def test_rows_outside_the_block_grid_rejected(self):
        items = sort_input([make_summary(5, 1)])
        with pytest.raises(ValueError):
            parallel_nnc(items, n_workers=2, sim_grid=ProcessorGrid(4, 4))

    def test_work_decreases_per_worker(self):
        rng = np.random.default_rng(1)
        items = sort_input(
            [
                make_summary(int(x), int(y), float(q))
                for x, y, q in zip(
                    rng.integers(0, 32, 300),
                    rng.integers(0, 32, 300),
                    rng.uniform(0.5, 0.6, 300),
                )
            ]
        )
        seq_ops = count_distance_evaluations(items)
        par = parallel_nnc(items, n_workers=16, sim_grid=ProcessorGrid(32, 32))
        assert max(par.per_worker_ops) < seq_ops
        assert par.speedup_vs(seq_ops) > 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        items = sort_input(
            [
                make_summary(int(x), int(y), float(q))
                for x, y, q in zip(
                    rng.integers(0, 16, 60),
                    rng.integers(0, 16, 60),
                    rng.uniform(0.5, 2.0, 60),
                )
            ]
        )
        a = parallel_nnc(items, 4, sim_grid=ProcessorGrid(16, 16))
        b = parallel_nnc(items, 4, sim_grid=ProcessorGrid(16, 16))
        assert [c.tolist() for c in a.clusters] == [c.tolist() for c in b.clusters]

    @given(st.integers(1, 16), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n_workers, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        coords = set()
        items = []
        for _ in range(n):
            x, y = int(rng.integers(0, 12)), int(rng.integers(0, 12))
            if (x, y) in coords:
                continue
            coords.add((x, y))
            items.append(make_summary(x, y, float(rng.uniform(0.5, 2.0))))
        info = sort_input(items)
        par = parallel_nnc(info, n_workers, sim_grid=ProcessorGrid(12, 12))
        # every accepted element lands in exactly one cluster
        assert sorted(np.concatenate(par.clusters).tolist()) == list(range(len(info)))
        assert set().union(*canonical(info, par.clusters)) == coords


class TestCountDistanceEvaluations:
    def test_zero_for_empty(self):
        assert count_distance_evaluations(sort_input([])) == 0

    def test_positive_for_clustered_input(self):
        items = sort_input(blob(3, 3, 6, 1.0))
        assert count_distance_evaluations(items) > 0

    def test_grows_with_input(self):
        small = sort_input(blob(3, 3, 4, 1.0))
        big = sort_input(blob(3, 3, 4, 1.0) + blob(10, 10, 6, 0.8))
        assert count_distance_evaluations(big) > count_distance_evaluations(small)

    def test_a_member_whose_cluster_refuses_does_not_place(self):
        # 0.1 joining 1.0 shifts the mean by 45 %: the guard refuses at
        # (1, 0), the scan goes on, and 0.1 founds a cluster that 0.09 joins
        info = sort_input(
            [make_summary(0, 0, 1.0), make_summary(1, 0, 0.1), make_summary(2, 0, 0.09)]
        )
        clusters = _nearest_neighbour_clustering_reference(info)
        assert [c.tolist() for c in clusters] == [[0], [1, 2]]
        # b: one DISTANCE call at 1 hop, one at 2; c: one per member of
        # [a] at 1 hop, then the one of [b] that places it
        assert count_distance_evaluations(info) == 4
