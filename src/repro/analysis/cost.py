"""Cost accounting for the parallel data analysis (paper §III).

The paper argues PDA's structure from two measurements:

* "the analysis of QCLOUD values in each split file is done in parallel
  because this is the most time-consuming step" — per-rank scan work
  scales down with the number of analysis processes ``N``;
* "for a maximum of 1024 split files, experiments show that the number of
  elements gathered at the root process is less than 200 for most of the
  time steps.  The sequential NNC algorithm takes less than a second to
  cluster such few values" — the root-side serial tail stays tiny.

:func:`pda_cost_profile` computes both quantities for a given step's split
files without running the analysis twice: the scan work per analysis rank
(grid points read), the gather payload, and an α–β time estimate for each
phase, so the scaling study in ``benchmarks/bench_pda_scaling.py`` can
sweep ``N`` the way the paper's cluster runs did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.parallel_nnc import count_distance_evaluations
from repro.analysis.pda import (
    OLR_THRESHOLD,
    _assign_files,
    _check_inputs,
    aggregate_summaries,
)
from repro.analysis.records import QcloudInfo, SplitBatch
from repro.grid.procgrid import ProcessorGrid

__all__ = ["PDACostProfile", "pda_cost_profile"]

#: Throughput of the per-point scan (read + compare + accumulate), points/s.
#: Calibrated to a ~2 GHz analysis node reading from local disk cache.
SCAN_POINTS_PER_SECOND = 2.5e7
#: Root-side clustering throughput, distance evaluations per second.
CLUSTER_OPS_PER_SECOND = 2.0e6


@dataclass(frozen=True)
class PDACostProfile:
    """Work and estimated time of one PDA invocation at ``n_analysis``."""

    n_analysis: int
    scan_points_total: int
    scan_points_max_rank: int  # slowest analysis rank's share
    gathered_elements: int  # tuples reaching the root
    cluster_ops: int  # root-side NNC distance evaluations

    @property
    def scan_time(self) -> float:
        """Parallel scan phase (slowest rank), seconds."""
        return self.scan_points_max_rank / SCAN_POINTS_PER_SECOND

    @property
    def cluster_time(self) -> float:
        """Root-side serial NNC phase, seconds."""
        return self.cluster_ops / CLUSTER_OPS_PER_SECOND

    @property
    def total_time(self) -> float:
        return self.scan_time + self.cluster_time

    def speedup_vs(self, serial: "PDACostProfile") -> float:
        """End-to-end speedup against a 1-rank profile."""
        return serial.total_time / self.total_time if self.total_time else float("inf")


def pda_cost_profile(
    batch: SplitBatch,
    sim_grid: ProcessorGrid,
    n_analysis: int,
) -> PDACostProfile:
    """Work profile of one PDA invocation (without re-running the scan).

    The root's elements are the tiles PDA gathers, each summarised file by
    file (:meth:`~repro.analysis.records.SplitFile.summarise`).

    Validation: the inputs :func:`~repro.analysis.pda.parallel_data_analysis`
    refuses are refused here too, by the same check.
    """
    _check_inputs(batch, sim_grid, n_analysis)
    buckets = _assign_files(batch, sim_grid, n_analysis)
    areas = batch.areas
    per_rank_points = [int(areas[bucket].sum()) for bucket in buckets]
    # PDA's corruption rule: a corrupt tile is counted, never gathered
    corrupt, _, _ = aggregate_summaries(batch, OLR_THRESHOLD)
    ranks, qclouds, fractions = [], [], []
    for rank in range(len(batch)):
        f = batch.file(rank)
        if f is None or corrupt[rank]:
            continue
        qcloud, olr_fraction = f.summarise(OLR_THRESHOLD)
        if olr_fraction > 0:
            ranks.append(rank)
            qclouds.append(qcloud)
            fractions.append(olr_fraction)
    block_y, block_x = np.divmod(np.array(ranks, dtype=np.int64), batch.px)
    info = QcloudInfo.sort_gathered(
        ranks, block_x, block_y, qclouds, fractions, batch.x_bounds, batch.y_bounds
    )
    return PDACostProfile(
        n_analysis=n_analysis,
        scan_points_total=sum(per_rank_points),
        scan_points_max_rank=max(per_rank_points),
        gathered_elements=len(info),
        cluster_ops=count_distance_evaluations(info),
    )
