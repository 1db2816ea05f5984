"""Algorithm 2: nearest-neighbour clustering of the root's ``qcloudinfo``.

Elements (the rows of a :class:`~repro.analysis.records.QcloudInfo`,
pre-sorted by decreasing aggregated QCLOUD) are clustered by spatial
proximity:

* an element below the QCLOUD or OLR-fraction thresholds is skipped;
* the element joins the first cluster containing a member **1 hop** away —
  provided joining would not shift the cluster's mean QCLOUD by more than
  the mean-deviation threshold (30 %);
* failing that, the same check is repeated at **2 hops**;
* otherwise the element founds a new cluster.

A hop is the Chebyshev distance between block positions: 1 hop reaches
the 8 surrounding subdomains, 2 hops the next ring out.  Checking 1-hop
before 2-hop attaches each element to its *nearest* cluster, which keeps
clusters spatially disjoint; the mean-deviation guard stops a cluster from
growing uncontrollably (paper §V-A, Fig. 9b).  A cluster is an index array
of its members' rows, in join order.

:func:`simple_two_hop_clustering` is the baseline of Fig. 9a — 2-hop only,
no mean guard — whose clusters can overlap in space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean

import numpy as np

from repro.analysis.records import QcloudInfo
from repro.obs import get_recorder

__all__ = ["NNCConfig", "nearest_neighbour_clustering", "simple_two_hop_clustering"]


@dataclass(frozen=True)
class NNCConfig:
    """Thresholds of Algorithms 1–2 (paper defaults)."""

    qcloud_threshold: float = 0.005  # minimum aggregated QCLOUD per subdomain
    olr_fraction_threshold: float = 0.005  # minimum low-OLR area fraction
    mean_deviation: float = 0.30  # cluster-mean shift tolerance
    max_hops: int = 2  # proximity rings to inspect

    def __post_init__(self) -> None:
        if self.mean_deviation < 0:
            raise ValueError(f"mean_deviation must be >= 0, got {self.mean_deviation}")
        if self.max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {self.max_hops}")


def _passing(info: QcloudInfo, config: NNCConfig) -> np.ndarray:
    """Rows that pass the QCLOUD and OLR-fraction thresholds, in order."""
    return np.flatnonzero(
        (info.qcloud >= config.qcloud_threshold)
        & (info.olr_fraction >= config.olr_fraction_threshold)
    )


def _accepted(info: QcloudInfo, config: NNCConfig) -> np.ndarray:
    """:func:`_passing` rows, refused unless their QCLOUD never increases."""
    rows = _passing(info, config)
    qcloud = info.qcloud[rows]
    if (qcloud[:-1] < qcloud[1:]).any():
        raise ValueError(
            "qcloudinfo must be sorted in non-increasing QCLOUD order "
            "(Algorithm 1 sorts before clustering)"
        )
    return rows


def _guarded_mean(
    values: list[float], old_mean: float, qcloud: float, mean_deviation: float
) -> float | None:
    """The mean-deviation half of DISTANCE.

    The cluster's mean QCLOUD with ``qcloud`` added, when that moves the
    mean ``old_mean`` of ``values`` by at most ``mean_deviation`` of it;
    otherwise ``None``.  Both means are ``math.fsum(values) / n``, which is
    how :func:`statistics.fmean` is defined, so they round exactly as it
    does.
    """
    values.append(qcloud)
    new_mean = math.fsum(values) / len(values)
    values.pop()
    if old_mean == 0:
        return new_mean if new_mean == 0 else None
    if abs(new_mean - old_mean) <= mean_deviation * abs(old_mean):
        return new_mean
    return None


def _ring(hop: int) -> list[tuple[int, int]]:
    """Block offsets exactly ``hop`` away: the ``8 * hop`` cells of the
    ``hop``-th proximity ring."""
    return [
        (dx, dy)
        for dy in range(-hop, hop + 1)
        for dx in range(-hop, hop + 1)
        if max(abs(dx), abs(dy)) == hop
    ]


def nearest_neighbour_clustering(
    info: QcloudInfo, config: NNCConfig | None = None
) -> list[np.ndarray]:
    """Cluster sorted ``qcloudinfo`` by proximity (Algorithm 2).

    ``info`` must already be sorted in non-increasing QCLOUD order
    (Algorithm 1 line 13 does the sort before calling NNC); only the rows
    that survive the thresholds need to obey the ordering.  Returns each
    cluster's rows, clusters in creation order and members in join order.

    DISTANCE is evaluated in its two halves.  An owner map over the block
    grid, padded by ``max_hops`` cells on every side, holds for each cell
    the set of clusters with a member there as the bits of one integer; a
    cell can hold members of several clusters only when rows repeat a
    block, which PDA's never do.  The clusters exactly ``hop`` away are
    the union of the ring's cells, and the mean-deviation guard, which
    reads only the cluster and the element, runs once per such candidate,
    in ascending cluster order.  The per-member loop of the paper is
    :func:`_nearest_neighbour_clustering_reference`.

    Validation: accepted rows out of QCLOUD order are refused
    (``ValueError``); the record checked its columns when it was built.
    """
    config = config or NNCConfig()
    with get_recorder().span("analysis.nnc", n_elements=len(info)):
        rows = _accepted(info, config)
        pad = config.max_hops
        width = info.px + 2 * pad
        owners = [0] * (width * (info.py + 2 * pad))
        cells = (info.block_y[rows] + pad) * width + info.block_x[rows] + pad
        rings = [
            [dy * width + dx for dx, dy in _ring(hop)] for hop in range(1, pad + 1)
        ]
        members: list[list[int]] = []
        values: list[list[float]] = []  # each cluster's member QCLOUDs
        means: list[float] = []
        for row, cell, qcloud in zip(
            rows.tolist(), cells.tolist(), info.qcloud[rows].tolist()
        ):
            home, mean = -1, 0.0
            # 1-hop ring first, then 2-hop — never 2-hop before 1-hop.
            for ring in rings:
                near = 0
                for offset in ring:
                    near |= owners[cell + offset]
                while near:
                    candidate = (near & -near).bit_length() - 1  # lowest bit
                    near &= near - 1
                    joined = _guarded_mean(
                        values[candidate],
                        means[candidate],
                        qcloud,
                        config.mean_deviation,
                    )
                    if joined is not None:
                        home, mean = candidate, joined
                        break
                if home >= 0:
                    break
            if home < 0:  # a new cluster, whose mean is its one member's
                home, mean = len(members), math.fsum([qcloud])
                members.append([])
                values.append([])
                means.append(mean)
            members[home].append(row)
            values[home].append(qcloud)
            means[home] = mean
            owners[cell] |= 1 << home
        return [np.array(m, dtype=np.int64) for m in members]


def _distance_ok(
    info: QcloudInfo,
    element: int,
    member: int,
    cluster: list[int],
    hop: int,
    mean_deviation: float | None,
) -> bool:
    """The paper's DISTANCE function (Algorithm 2, lines 22–31).

    True when row ``element`` is exactly ``hop`` away from row ``member``
    and adding it moves the mean QCLOUD of the rows in ``cluster`` by at
    most ``mean_deviation`` (no mean test when ``mean_deviation`` is None —
    the Fig. 9a baseline).
    """
    hops = max(
        abs(int(info.block_x[element]) - int(info.block_x[member])),
        abs(int(info.block_y[element]) - int(info.block_y[member])),
    )
    if hops != hop:
        return False
    if mean_deviation is None:
        return True
    qclouds = [float(info.qcloud[m]) for m in cluster]
    old_mean = fmean(qclouds)
    new_mean = fmean(qclouds + [float(info.qcloud[element])])
    if old_mean == 0:
        return new_mean == 0
    return abs(new_mean - old_mean) <= mean_deviation * abs(old_mean)


def _nearest_neighbour_clustering_reference(
    info: QcloudInfo, config: NNCConfig | None = None
) -> list[np.ndarray]:
    """Algorithm 2 as published, one DISTANCE call per member (tests only).

    The oracle of :func:`nearest_neighbour_clustering`: the same clusters,
    the same rows in the same order.
    """
    config = config or NNCConfig()
    clusters: list[list[int]] = []
    last_accepted: float | None = None
    for element in range(len(info)):
        qcloud = float(info.qcloud[element])
        if not (
            qcloud >= config.qcloud_threshold
            and info.olr_fraction[element] >= config.olr_fraction_threshold
        ):
            continue
        if last_accepted is not None and last_accepted < qcloud:
            raise ValueError(
                "qcloudinfo must be sorted in non-increasing QCLOUD order "
                "(Algorithm 1 sorts before clustering)"
            )
        last_accepted = qcloud
        placed = False
        # 1-hop ring first, then 2-hop — never 2-hop before 1-hop.
        for hop in range(1, config.max_hops + 1):
            for cluster in clusters:
                if any(
                    _distance_ok(
                        info, element, member, cluster, hop, config.mean_deviation
                    )
                    for member in cluster
                ):
                    cluster.append(element)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            clusters.append([element])
    return [np.array(c, dtype=np.int64) for c in clusters]


def simple_two_hop_clustering(
    info: QcloudInfo, config: NNCConfig | None = None
) -> list[np.ndarray]:
    """Fig. 9a baseline: 2-hop-only proximity, no mean-deviation guard.

    An element joins the first cluster with any member within 2 hops; the
    resulting clusters can overlap in space and grow without bound.

    Validation: intentionally none — this baseline accepts any element
    order to mirror the paper's unguarded Fig. 9a comparison run.
    """
    config = config or NNCConfig()
    block_x, block_y = info.block_x.tolist(), info.block_y.tolist()
    clusters: list[list[int]] = []
    for element in _passing(info, config).tolist():
        x, y = block_x[element], block_y[element]
        placed = False
        for cluster in clusters:
            if any(max(abs(x - block_x[m]), abs(y - block_y[m])) <= 2 for m in cluster):
                cluster.append(element)
                placed = True
                break
        if not placed:
            clusters.append([element])
    return [np.array(c, dtype=np.int64) for c in clusters]
