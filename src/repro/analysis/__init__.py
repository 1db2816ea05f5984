"""Organised-cloud-cluster detection (paper §III).

The pipeline mirrors the paper exactly:

1. each simulation rank writes a **split file** with its subdomain's QCLOUD
   (cloud water mixing ratio) and OLR (outgoing long-wave radiation) fields;
   one step's files travel as one
   :class:`~repro.analysis.records.SplitBatch` over the step's fields
   (:class:`~repro.analysis.records.SplitFile` is one file on its own);
2. ``N`` analysis processes each scan ``k = P/N`` split files, aggregating
   QCLOUD over grid points with ``OLR <= 200`` and computing the fraction of
   such points (**Algorithm 1**, :func:`~repro.analysis.pda.parallel_data_analysis`);
3. the root gathers the per-subdomain summaries as one
   :class:`~repro.analysis.records.QcloudInfo` record, sorts it by
   aggregated QCLOUD, and clusters its rows by spatial proximity (**Algorithm 2**,
   :func:`~repro.analysis.nnc.nearest_neighbour_clustering`) — 1-hop first,
   then 2-hop, guarded by a 30 % mean-deviation test;
4. each cluster's bounding rectangle becomes a region of interest over which
   a nest is spawned (:func:`~repro.analysis.regions.clusters_to_rectangles`).
"""

from repro.analysis.records import QcloudInfo, SplitBatch, SplitFile
from repro.analysis.nnc import (
    NNCConfig,
    nearest_neighbour_clustering,
    simple_two_hop_clustering,
)
from repro.analysis.pda import PDAResult, parallel_data_analysis
from repro.analysis.parallel_nnc import (
    ParallelNNCResult,
    count_distance_evaluations,
    parallel_nnc,
)
from repro.analysis.regions import cluster_bounding_rect, clusters_to_rectangles
from repro.analysis.cost import PDACostProfile, pda_cost_profile

__all__ = [
    "PDACostProfile",
    "pda_cost_profile",
    "ParallelNNCResult",
    "count_distance_evaluations",
    "parallel_nnc",
    "QcloudInfo",
    "SplitBatch",
    "SplitFile",
    "NNCConfig",
    "nearest_neighbour_clustering",
    "simple_two_hop_clustering",
    "PDAResult",
    "parallel_data_analysis",
    "cluster_bounding_rect",
    "clusters_to_rectangles",
]
