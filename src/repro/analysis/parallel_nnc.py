"""Parallel nearest-neighbour clustering (the paper's stated future work).

§III closes with: "we would like to parallelize the NNC algorithm in
future for simulations on larger number of processors".  This module
implements that extension with the standard two-phase scheme for
proximity clustering:

1. **Local phase** — the ``qcloudinfo`` rows are partitioned spatially
   into ``n_workers`` rectangular tiles of the block grid; each worker
   runs the *sequential* NNC (Algorithm 2) on its own tile.  Workers only
   look at their own elements, so the phase is embarrassingly parallel.
2. **Merge phase** — clusters from different tiles are merged when any
   cross-tile member pair lies within the hop limit *and* the merged
   cluster passes the mean-compatibility test (the two cluster means are
   within the mean-deviation threshold of each other, the natural
   cluster-level generalisation of Algorithm 2's member-level guard).
   Union-find closes the merge relation transitively.

The result is deterministic and independent of worker count in the
well-separated case (cluster diameter < tile size); near tile borders it
can differ from the sequential order-dependent greedy — the same kind of
divergence any parallelisation of a greedy clustering accepts.  Per-worker
distance-evaluation counts are reported so the scaling benefit is
measurable without real parallel hardware.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.nnc import (
    NNCConfig,
    _accepted,
    _guarded_mean,
    nearest_neighbour_clustering,
)
from repro.analysis.records import QcloudInfo
from repro.grid.block import split_evenly
from repro.grid.procgrid import ProcessorGrid
from repro.util.validation import check_non_negative

__all__ = ["ParallelNNCResult", "parallel_nnc", "count_distance_evaluations"]


@dataclass(frozen=True)
class ParallelNNCResult:
    """Clusters plus the per-phase work accounting."""

    clusters: list[np.ndarray]  # rows of the input, as ``nearest_neighbour_clustering``
    n_workers: int
    per_worker_elements: list[int]
    per_worker_ops: list[int]  # local-phase distance evaluations per worker
    merge_ops: int  # merge-phase cross-tile distance evaluations

    @property
    def critical_path_ops(self) -> int:
        """Work on the slowest worker plus the (root-side) merge phase."""
        local = max(self.per_worker_ops) if self.per_worker_ops else 0
        return local + self.merge_ops

    def speedup_vs(self, sequential_ops: int) -> float:
        """Operation-count speedup over the sequential algorithm."""
        check_non_negative("sequential_ops", sequential_ops)
        cp = self.critical_path_ops
        return sequential_ops / cp if cp else float("inf")


def count_distance_evaluations(
    info: QcloudInfo, config: NNCConfig | None = None
) -> int:
    """Distance evaluations the *sequential* NNC performs on this input.

    Mirrors Algorithm 2's loop structure, as
    :func:`~repro.analysis.nnc._nearest_neighbour_clustering_reference`
    runs it: for each accepted element, every member of every existing
    cluster is inspected at 1 hop and (on miss) again at 2 hops, until a
    member ``hop`` away whose cluster's mean guard admits the element
    places it.  A member at ``hop`` whose cluster refuses the element does
    not place it; the scan goes on.

    Validation: a pure counting mirror of the sequential algorithm — it
    accepts whatever input the clustering itself would, by construction.
    """
    config = config or NNCConfig()
    block_x, block_y = info.block_x.tolist(), info.block_y.tolist()
    qclouds = info.qcloud.tolist()
    ops = 0
    clusters: list[list[int]] = []
    values: list[list[float]] = []  # each cluster's member QCLOUDs
    means: list[float] = []
    for element in _accepted(info, config).tolist():
        x, y, qcloud = block_x[element], block_y[element], qclouds[element]
        home, mean = -1, 0.0
        for hop in range(1, config.max_hops + 1):
            for c, cluster in enumerate(clusters):
                admits = None  # the guard's verdict, once a member is at hop
                for member in cluster:
                    ops += 1
                    if max(abs(x - block_x[member]), abs(y - block_y[member])) != hop:
                        continue
                    if admits is None:
                        admits = _guarded_mean(
                            values[c], means[c], qcloud, config.mean_deviation
                        )
                    if admits is not None:
                        home, mean = c, admits
                        break
                if home >= 0:
                    break
            if home >= 0:
                break
        if home < 0:  # a new cluster, whose mean is its one member's
            home, mean = len(clusters), math.fsum([qcloud])
            clusters.append([])
            values.append([])
            means.append(mean)
        clusters[home].append(element)
        values[home].append(qcloud)
        means[home] = mean
    return ops


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _rows_of(info: QcloudInfo, rows: np.ndarray) -> QcloudInfo:
    """The record of ``info``'s rows ``rows``, in that order."""
    return dataclasses.replace(
        info,
        file_index=info.file_index[rows],
        block_x=info.block_x[rows],
        block_y=info.block_y[rows],
        qcloud=info.qcloud[rows],
        olr_fraction=info.olr_fraction[rows],
    )


def parallel_nnc(
    info: QcloudInfo,
    n_workers: int,
    config: NNCConfig | None = None,
    sim_grid: ProcessorGrid | None = None,
) -> ParallelNNCResult:
    """Two-phase parallel NNC over ``n_workers`` spatial tiles.

    Parameters
    ----------
    info:
        The ``qcloudinfo`` rows, sorted in non-increasing QCLOUD order (the
        same input Algorithm 2 receives).
    n_workers:
        Number of analysis workers (tiles).
    config:
        Thresholds shared with the sequential NNC.
    sim_grid:
        The simulation's block grid; inferred from the rows' block
        coordinates when omitted.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    config = config or NNCConfig()
    if not len(info):
        return ParallelNNCResult([], n_workers, [0] * n_workers, [0] * n_workers, 0)

    if sim_grid is None:
        px = int(info.block_x.max()) + 1
        py = int(info.block_y.max()) + 1
    else:
        px, py = sim_grid.px, sim_grid.py
        if info.block_x.max() >= px or info.block_y.max() >= py:
            raise ValueError(f"rows lie outside the {px}x{py} block grid")
    tiles = ProcessorGrid.square_like(n_workers)
    xb = split_evenly(px, tiles.px)
    yb = split_evenly(py, tiles.py)

    # ------------------------------------------------------------------
    # Phase 1: local clustering per tile (order within a tile preserves the
    # global QCLOUD ordering, as each worker receives a sorted sublist).
    # A row's tile column is the number of tile boundaries at or left of
    # its block (likewise for rows).
    # ------------------------------------------------------------------
    tile_x = np.searchsorted(xb[1:], info.block_x, side="right")
    tile_y = np.searchsorted(yb[1:], info.block_y, side="right")
    tile = tile_y * tiles.px + tile_x
    buckets = [np.flatnonzero(tile == w) for w in range(n_workers)]

    local_clusters: list[np.ndarray] = []  # each cluster's rows of ``info``
    cluster_tile: list[int] = []
    per_worker_ops: list[int] = []
    for w, rows in enumerate(buckets):
        bucket = _rows_of(info, rows)
        per_worker_ops.append(count_distance_evaluations(bucket, config))
        for cluster in nearest_neighbour_clustering(bucket, config):
            local_clusters.append(rows[cluster])
            cluster_tile.append(w)

    # ------------------------------------------------------------------
    # Phase 2: merge clusters across tile borders.
    # ------------------------------------------------------------------
    uf = _UnionFind(len(local_clusters))
    merge_ops = 0
    means = [float(np.mean(info.qcloud[c])) for c in local_clusters]
    # Spatial prefilter: a pair of clusters can only merge when their block
    # bounding boxes come within the hop limit — O(1) per pair, so the
    # quadratic pair scan stays cheap and member-level distance checks run
    # only for genuinely adjacent border clusters.
    boxes = [
        (
            int(info.block_x[c].min()),
            int(info.block_x[c].max()),
            int(info.block_y[c].min()),
            int(info.block_y[c].max()),
        )
        for c in local_clusters
    ]
    block_x, block_y = info.block_x.tolist(), info.block_y.tolist()
    for a in range(len(local_clusters)):
        for b in range(a + 1, len(local_clusters)):
            if cluster_tile[a] == cluster_tile[b]:
                continue  # same tile: the local phase already decided
            merge_ops += 1  # bounding-box test
            ax0, ax1, ay0, ay1 = boxes[a]
            bx0, bx1, by0, by1 = boxes[b]
            gap_x = max(bx0 - ax1, ax0 - bx1, 0)
            gap_y = max(by0 - ay1, ay0 - by1, 0)
            if max(gap_x, gap_y) > config.max_hops:
                continue
            # mean-compatibility next (cheap), then member proximity
            ma, mb = means[a], means[b]
            if ma == 0 and mb == 0:
                compatible = True
            else:
                base = max(abs(ma), abs(mb))
                compatible = abs(ma - mb) <= config.mean_deviation * base
            if not compatible:
                continue
            close = False
            for s in local_clusters[a].tolist():
                for t in local_clusters[b].tolist():
                    merge_ops += 1
                    hops = max(abs(block_x[s] - block_x[t]), abs(block_y[s] - block_y[t]))
                    if hops <= config.max_hops:
                        close = True
                        break
                if close:
                    break
            if close:
                uf.union(a, b)

    merged: dict[int, list[int]] = {}
    for idx, cluster in enumerate(local_clusters):
        merged.setdefault(uf.find(idx), []).extend(cluster.tolist())
    # Keep the output ordering deterministic: clusters by their strongest
    # member, members by decreasing QCLOUD (as the sequential NNC sees them).
    qcloud = info.qcloud.tolist()
    out = [sorted(c, key=lambda row: -qcloud[row]) for c in merged.values()]
    out.sort(key=lambda c: -qcloud[c[0]])
    return ParallelNNCResult(
        clusters=[np.array(c, dtype=np.int64) for c in out],
        n_workers=n_workers,
        per_worker_elements=[len(rows) for rows in buckets],
        per_worker_ops=per_worker_ops,
        merge_ops=merge_ops,
    )
