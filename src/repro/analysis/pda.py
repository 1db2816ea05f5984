"""Algorithm 1: parallel data analysis of split files.

``P`` split files are divided among ``N`` analysis processes as rectangular
subsets of the simulation's ``(Px, Py)`` process decomposition; each
analysis process summarises its ``k = P/N`` files (aggregate QCLOUD where
``OLR <= 200``, plus the low-OLR area fraction); the root gathers the
summaries, sorts them by decreasing QCLOUD, clusters them with Algorithm 2
and emits one bounding rectangle per cluster.

The analysis runs on the :class:`~repro.mpisim.comm.SimComm` SPMD harness —
"the parallel data analysis algorithm is executed simultaneously on a
different set of processors than the processors running the WRF simulation"
— so the division of files, the per-rank loop and the root-side gather are
structured exactly as published.

Degraded mode (:mod:`repro.faults`): a production analysis step must survive
missing split files (a crashed writer leaves nothing behind), truncated or
corrupt files (non-finite payloads), and failed analysis ranks.  The entry
point therefore accepts ``None`` entries in ``files``, detects non-finite
fields, and skips the buckets of failed :class:`SimComm` ranks; the result
is flagged ``partial`` with per-cause counts, and the aggregate low-OLR
fraction is renormalised over the *reporting* subdomain area rather than
the whole domain, so thresholds stay comparable whatever was lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.nnc import NNCConfig, nearest_neighbour_clustering
from repro.analysis.records import SplitFile, SubdomainSummary
from repro.analysis.regions import clusters_to_rectangles
from repro.grid.block import split_evenly
from repro.grid.procgrid import ProcessorGrid
from repro.grid.rect import Rect
from repro.sanitize.hooks import get_sanitizer
from repro.mpisim.comm import SimComm
from repro.obs import get_recorder

__all__ = [
    "PDAConfig",
    "PDAResult",
    "aggregate_summaries",
    "aggregate_summaries_reference",
    "parallel_data_analysis",
]


@dataclass(frozen=True)
class PDAConfig:
    """Thresholds for Algorithm 1 + the embedded Algorithm 2."""

    olr_threshold: float = 200.0  # paper: upper OLR bound for deep cloud
    nnc: NNCConfig = field(default_factory=NNCConfig)
    min_roi_area: int = 0


@dataclass(frozen=True)
class PDAResult:
    """Everything the root computes at one adaptation point."""

    rectangles: list[Rect]  # regions of interest (parent grid points)
    clusters: list[list[SubdomainSummary]]
    summaries: list[SubdomainSummary]  # sorted qcloudinfo the root saw
    gathered_items: int  # elements gathered at the root
    #: True when any split file or analysis rank failed to report
    partial: bool = False
    n_files_missing: int = 0  # ``None`` entries (lost / truncated writers)
    n_files_corrupt: int = 0  # files with non-finite QCLOUD/OLR payloads
    n_ranks_failed: int = 0  # failed analysis ranks (their buckets unread)
    #: reporting subdomain area / full domain area (1.0 when complete, 0.0
    #: when every split file is lost)
    coverage: float = 1.0
    #: area-weighted low-OLR fraction over *reporting* subdomains only
    low_olr_fraction: float = 0.0


def _assign_files(
    files: list[SplitFile | None], sim_grid: ProcessorGrid, n_analysis: int
) -> list[list[SplitFile]]:
    """Divide the P split files among N analysis ranks (Algorithm 1, 1–2).

    The subsets are rectangular blocks of the simulation's ``(Px, Py)``
    decomposition: the analysis grid is the most square factorisation of
    ``N`` and each analysis rank receives a contiguous block of subdomains.
    Missing files (``None`` entries) are simply absent from every bucket.
    A file's analysis column is the number of column boundaries at or left
    of its block, ``(xb[1:] <= block_x).sum()``, found for every file by one
    ``searchsorted`` (likewise for rows).
    """
    ag = ProcessorGrid.square_like(n_analysis)
    xb = split_evenly(sim_grid.px, ag.px)
    yb = split_evenly(sim_grid.py, ag.py)
    present = [f for f in files if f is not None]
    bx = np.fromiter((f.block_x for f in present), np.int64, len(present))
    by = np.fromiter((f.block_y for f in present), np.int64, len(present))
    ax = np.searchsorted(xb[1:], bx, side="right")
    ay = np.searchsorted(yb[1:], by, side="right")
    buckets: list[list[SplitFile]] = [[] for _ in range(n_analysis)]
    for f, owner in zip(present, (ay * ag.px + ax).tolist()):
        buckets[owner].append(f)
    return buckets


def aggregate_summaries(
    files: list[SplitFile],
    olr_threshold: float,
) -> list[tuple[bool, SubdomainSummary | None]]:
    """Corruption flag + summary for many split files at once.

    Returns one ``(corrupt, summary)`` per input file, aligned with
    ``files``; corrupt files (non-finite QCLOUD/OLR — a truncated or
    garbled payload) carry ``None``.  Same-shape tiles are stacked and the
    whole batch reduces with masked array ops.  Against the file-by-file
    oracle :func:`aggregate_summaries_reference`, the integer-derived
    fields (``olr_fraction``, corruption flags) are bit-identical; the
    ``qcloud`` float aggregate may differ in the last ulp because batched
    reductions sum in a different order (see ``docs/performance.md``).
    """
    with get_recorder().span("analysis.aggregate", n_files=len(files)):
        results: list[tuple[bool, SubdomainSummary | None]] = [
            (True, None)
        ] * len(files)
        by_shape: dict[tuple[int, int], list[int]] = {}
        for i, f in enumerate(files):
            by_shape.setdefault(f.qcloud.shape, []).append(i)
        for shape, idxs in by_shape.items():
            # (n, h, w) stacks, each built by one concatenate along the rows
            n = len(idxs)
            q = np.concatenate([files[i].qcloud for i in idxs]).reshape(n, *shape)
            o = np.concatenate([files[i].olr for i in idxs]).reshape(n, *shape)
            finite = np.isfinite(q).all(axis=(1, 2)) & np.isfinite(o).all(
                axis=(1, 2)
            )
            mask = o <= olr_threshold
            counts = mask.sum(axis=(1, 2)).tolist()
            qsum = np.where(mask, q, 0.0).sum(axis=(1, 2)).tolist()
            area = shape[0] * shape[1]
            for i, ok, qs, count in zip(idxs, finite.tolist(), qsum, counts):
                if not ok:
                    continue  # stays (True, None)
                f = files[i]
                results[i] = (
                    False,
                    SubdomainSummary(
                        file_index=f.file_index,
                        block_x=f.block_x,
                        block_y=f.block_y,
                        extent=f.extent,
                        qcloud=qs,
                        olr_fraction=count / area if area else 0.0,
                    ),
                )
        return results


def aggregate_summaries_reference(
    files: list[SplitFile],
    olr_threshold: float,
) -> list[tuple[bool, SubdomainSummary | None]]:
    """File-by-file scalar oracle of :func:`aggregate_summaries` (tests only)."""
    return [
        (False, f.summarise(olr_threshold))
        if np.isfinite(f.qcloud).all() and np.isfinite(f.olr).all()
        else (True, None)
        for f in files
    ]


def parallel_data_analysis(
    files: list[SplitFile | None],
    sim_grid: ProcessorGrid,
    n_analysis: int,
    config: PDAConfig | None = None,
    comm: SimComm | None = None,
) -> PDAResult:
    """Run Algorithm 1 over one step's split files.

    Parameters
    ----------
    files:
        The ``P`` split files written by the simulation ranks.  ``None``
        entries mark files that never arrived (crashed or truncated
        writers); they are counted and the result is flagged partial.
    sim_grid:
        The simulation's ``(Px, Py)`` process decomposition (for the
        rectangular division of files among analysis ranks).
    n_analysis:
        ``N``, the number of analysis processes.
    config:
        Thresholds; paper defaults when omitted.
    comm:
        An existing :class:`SimComm` of size ``N`` (one is created when
        omitted); its statistics account the root gather, and its failed
        ranks' buckets go unread (degraded mode).

    Every present file is summarised once, in one batched pass
    (:func:`aggregate_summaries`), shared by the per-rank analysis and the
    degraded-mode renormalisation.
    """
    if len(files) != sim_grid.nprocs:
        raise ValueError(
            f"expected one split file per simulation rank "
            f"({sim_grid.nprocs}), got {len(files)}"
        )
    if not 1 <= n_analysis <= len(files):
        raise ValueError(
            f"n_analysis must be in [1, {len(files)}], got {n_analysis}"
        )
    config = config or PDAConfig()
    comm = comm or SimComm(n_analysis)
    if comm.Get_size() != n_analysis:
        raise ValueError(
            f"communicator size {comm.Get_size()} != n_analysis {n_analysis}"
        )

    with get_recorder().span(
        "analysis.pda", n_files=len(files), n_analysis=n_analysis
    ):
        n_missing = sum(1 for f in files if f is None)
        buckets = _assign_files(files, sim_grid, n_analysis)
        corrupt_count = [0]  # mutated by the per-rank closure
        present = [f for f in files if f is not None]
        info = {
            id(f): cs
            for f, cs in zip(
                present, aggregate_summaries(present, config.olr_threshold)
            )
        }

        # Per-rank analysis (Algorithm 1, lines 3–9).  An analysis rank only
        # reports subdomains containing any low-OLR area — "some of the split
        # files may not have regions with OLR <= 200, in which case the
        # process owning these split files will send fewer than k values" —
        # and skips corrupt files, counting them for the partial flag.
        def analyse(rank: int) -> list[SubdomainSummary]:
            out = []
            for f in buckets[rank]:
                corrupt, summary = info[id(f)]
                if corrupt:
                    corrupt_count[0] += 1
                    continue
                assert summary is not None
                if summary.olr_fraction > 0:
                    out.append(summary)
            return out

        per_rank = comm.run(analyse)

        # Reporting area: every healthy file whose analysis rank is alive.
        # Renormalise over reporting ranks: the low-OLR fraction a complete
        # analysis would divide by the whole domain is instead divided by
        # the area that actually reported, so it stays a comparable fraction.
        reporting_area = 0
        weighted_low_olr = 0.0
        for rank, bucket in enumerate(buckets):
            if not comm.alive(rank):
                continue
            for f in bucket:
                corrupt, summary = info[id(f)]
                if corrupt:
                    continue
                assert summary is not None
                reporting_area += f.extent.area
                weighted_low_olr += summary.olr_fraction * f.extent.area
        low_olr = weighted_low_olr / reporting_area if reporting_area else 0.0

        n_failed = len(comm.failed_ranks)
        n_corrupt = corrupt_count[0]
        partial = bool(n_missing or n_corrupt or n_failed)
        full_area = _full_domain_area(files)
        if full_area:
            coverage = reporting_area / full_area
        else:  # every file lost (or every tile empty): none unless complete
            coverage = 0.0 if partial else 1.0

        # Root gather (line 11) + sort (line 13) + NNC (line 14) + rectangles.
        gathered = comm.gather(per_rank, root=0)
        assert gathered is not None
        qcloudinfo = sorted(gathered, key=lambda s: -s.qcloud)
        clusters = nearest_neighbour_clustering(qcloudinfo, config.nnc)
        rectangles = clusters_to_rectangles(clusters, config.min_roi_area)
        if partial:
            get_recorder().emit(
                "pda.partial",
                missing=n_missing,
                corrupt=n_corrupt,
                failed_ranks=n_failed,
                coverage=round(coverage, 6),
            )
        result = PDAResult(
            rectangles=rectangles,
            clusters=clusters,
            summaries=qcloudinfo,
            gathered_items=len(gathered),
            partial=partial,
            n_files_missing=n_missing,
            n_files_corrupt=n_corrupt,
            n_ranks_failed=n_failed,
            coverage=coverage,
            low_olr_fraction=low_olr,
        )
        sanitizer = get_sanitizer()
        if sanitizer.enabled:
            sanitizer.after_pda(result)
        return result


def _full_domain_area(files: list[SplitFile | None]) -> float:
    """Total subdomain area including an estimate for missing files.

    Present files report their exact extents; a missing file's extent is
    unknown, so it is approximated by the mean extent of the present ones
    (exact when the decomposition is even, close otherwise).
    """
    present = [f.extent.area for f in files if f is not None]
    if not present:
        return 0.0
    mean_area = sum(present) / len(present)
    n_missing = len(files) - len(present)
    return float(sum(present) + mean_area * n_missing)
