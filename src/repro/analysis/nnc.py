"""Algorithm 2: nearest-neighbour clustering of subdomain summaries.

Elements (subdomain summaries, pre-sorted by decreasing aggregated QCLOUD)
are clustered by spatial proximity:

* an element below the QCLOUD or OLR-fraction thresholds is skipped;
* the element joins the first cluster containing a member **1 hop** away —
  provided joining would not shift the cluster's mean QCLOUD by more than
  the mean-deviation threshold (30 %);
* failing that, the same check is repeated at **2 hops**;
* otherwise the element founds a new cluster.

Checking 1-hop before 2-hop attaches each element to its *nearest* cluster,
which keeps clusters spatially disjoint; the mean-deviation guard stops a
cluster from growing uncontrollably (paper §V-A, Fig. 9b).

:func:`simple_two_hop_clustering` is the baseline of Fig. 9a — 2-hop only,
no mean guard — whose clusters can overlap in space.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean

from repro.analysis.records import SubdomainSummary
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


def _passes_thresholds(element: SubdomainSummary, config: NNCConfig) -> bool:
    return (
        element.qcloud >= config.qcloud_threshold
        and element.olr_fraction >= config.olr_fraction_threshold
    )


def _distance_ok(
    element: SubdomainSummary,
    member: SubdomainSummary,
    cluster: list[SubdomainSummary],
    hop: int,
    mean_deviation: float | None,
) -> bool:
    """The paper's DISTANCE function (Algorithm 2, lines 22–31).

    True when ``element`` is exactly ``hop`` away from ``member`` and adding
    it moves the cluster's mean QCLOUD by at most ``mean_deviation``
    (no mean test when ``mean_deviation`` is None — the Fig. 9a baseline).
    """
    if element.hop_distance(member) != hop:
        return False
    if mean_deviation is None:
        return True
    old_mean = fmean(m.qcloud for m in cluster)
    new_mean = fmean([m.qcloud for m in cluster] + [element.qcloud])
    if old_mean == 0:
        return new_mean == 0
    return abs(new_mean - old_mean) <= mean_deviation * abs(old_mean)


def _ring(hop: int) -> list[tuple[int, int]]:
    """Block offsets exactly ``hop`` away: the ``8 * hop`` cells of the
    ``hop``-th proximity ring."""
    return [
        (dx, dy)
        for dy in range(-hop, hop + 1)
        for dx in range(-hop, hop + 1)
        if max(abs(dx), abs(dy)) == hop
    ]


def _mean_guard_ok(
    cluster: list[SubdomainSummary], element: SubdomainSummary, mean_deviation: float
) -> bool:
    """The mean-deviation half of DISTANCE: adding ``element`` moves the
    cluster's mean QCLOUD by at most ``mean_deviation`` of the old mean."""
    qclouds = [m.qcloud for m in cluster]
    old_mean = fmean(qclouds)
    new_mean = fmean(qclouds + [element.qcloud])
    if old_mean == 0:
        return new_mean == 0
    return abs(new_mean - old_mean) <= mean_deviation * abs(old_mean)


def nearest_neighbour_clustering(
    qcloudinfo: list[SubdomainSummary], config: NNCConfig | None = None
) -> list[list[SubdomainSummary]]:
    """Cluster sorted ``qcloudinfo`` by proximity (Algorithm 2).

    ``qcloudinfo`` must already be sorted in non-increasing QCLOUD order
    (Algorithm 1 line 13 does the sort before calling NNC); only the
    elements that survive the thresholds need to obey the ordering.

    DISTANCE is evaluated in its two halves.  The clusters owning a block
    exactly ``hop`` away are read from a cell → clusters index over that
    ring, and the mean-deviation guard, which reads only the cluster and
    the element, runs once per such candidate, in cluster order.  The
    per-member loop of the paper is
    :func:`_nearest_neighbour_clustering_reference`.
    """
    config = config or NNCConfig()
    with get_recorder().span("analysis.nnc", n_elements=len(qcloudinfo)):
        clusters: list[list[SubdomainSummary]] = []
        owners: dict[tuple[int, int], set[int]] = {}  # block -> its clusters
        rings = [_ring(hop) for hop in range(1, config.max_hops + 1)]
        last_accepted: SubdomainSummary | None = None
        for element in qcloudinfo:
            if not _passes_thresholds(element, config):
                continue
            if last_accepted is not None and last_accepted.qcloud < element.qcloud:
                raise ValueError(
                    "qcloudinfo must be sorted in non-increasing QCLOUD order "
                    "(Algorithm 1 sorts before clustering)"
                )
            last_accepted = element
            x, y = element.block_x, element.block_y
            home = None
            # 1-hop ring first, then 2-hop — never 2-hop before 1-hop.
            for ring in rings:
                near = {c for dx, dy in ring for c in owners.get((x + dx, y + dy), ())}
                home = next(
                    (
                        c
                        for c in sorted(near)
                        if _mean_guard_ok(clusters[c], element, config.mean_deviation)
                    ),
                    None,
                )
                if home is not None:
                    break
            if home is None:
                home = len(clusters)
                clusters.append([])
            clusters[home].append(element)
            owners.setdefault((x, y), set()).add(home)
        return clusters


def _nearest_neighbour_clustering_reference(
    qcloudinfo: list[SubdomainSummary], config: NNCConfig | None = None
) -> list[list[SubdomainSummary]]:
    """Algorithm 2 as published, one DISTANCE call per member (tests only).

    The oracle of :func:`nearest_neighbour_clustering`: the same clusters,
    the same summary objects in the same order.
    """
    config = config or NNCConfig()
    clusters: list[list[SubdomainSummary]] = []
    last_accepted: SubdomainSummary | None = None
    for element in qcloudinfo:
        if not _passes_thresholds(element, config):
            continue
        if last_accepted is not None and last_accepted.qcloud < element.qcloud:
            raise ValueError(
                "qcloudinfo must be sorted in non-increasing QCLOUD order "
                "(Algorithm 1 sorts before clustering)"
            )
        last_accepted = element
        placed = False
        # 1-hop ring first, then 2-hop — never 2-hop before 1-hop.
        for hop in range(1, config.max_hops + 1):
            for cluster in clusters:
                if any(
                    _distance_ok(element, member, cluster, hop, config.mean_deviation)
                    for member in cluster
                ):
                    cluster.append(element)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            clusters.append([element])
    return clusters


def simple_two_hop_clustering(
    qcloudinfo: list[SubdomainSummary], config: NNCConfig | None = None
) -> list[list[SubdomainSummary]]:
    """Fig. 9a baseline: 2-hop-only proximity, no mean-deviation guard.

    An element joins the first cluster with any member within 2 hops; the
    resulting clusters can overlap in space and grow without bound.

    Validation: intentionally none — this baseline accepts any element
    order to mirror the paper's unguarded Fig. 9a comparison run.
    """
    config = config or NNCConfig()
    clusters: list[list[SubdomainSummary]] = []
    for element in qcloudinfo:
        if not _passes_thresholds(element, config):
            continue
        placed = False
        for cluster in clusters:
            if any(element.hop_distance(m) <= 2 for m in cluster):
                cluster.append(element)
                placed = True
                break
        if not placed:
            clusters.append([element])
    return clusters
