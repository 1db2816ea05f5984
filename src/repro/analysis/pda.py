"""Algorithm 1: parallel data analysis of split files.

``P`` split files are divided among ``N`` analysis processes as rectangular
subsets of the simulation's ``(Px, Py)`` process decomposition; each
analysis process summarises its ``k = P/N`` files (aggregate QCLOUD where
``OLR <= 200``, plus the low-OLR area fraction); the root gathers the
summaries, sorts them by decreasing QCLOUD, clusters them with Algorithm 2
and emits one bounding rectangle per cluster.

"The parallel data analysis algorithm is executed simultaneously on a
different set of processors than the processors running the WRF
simulation": here the files arrive as one
:class:`~repro.analysis.records.SplitBatch` over the step's fields, the
``N`` analysis ranks' per-file reductions run once for the whole batch,
and each rank's sends are one masked selection over the tiles ordered by
analysis rank, so the root sees the tuples in the order the published
per-rank analysis and gather deliver them.  The root's ``qcloudinfo`` is
one :class:`~repro.analysis.records.QcloudInfo` record from the gather to
the rectangles.

Degraded mode (:mod:`repro.faults`): a production analysis step must survive
missing split files (a crashed writer leaves nothing behind) and truncated
or corrupt files (non-finite payloads).  The batch marks missing tiles and
non-finite tiles are detected; the result is flagged ``partial`` with
per-cause counts, and the aggregate low-OLR fraction is renormalised over
the *reporting* subdomain area rather than the whole domain, so thresholds
stay comparable whatever was lost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.nnc import nearest_neighbour_clustering
from repro.analysis.records import QcloudInfo, SplitBatch
from repro.analysis.regions import clusters_to_rectangles
from repro.grid.block import split_evenly
from repro.grid.procgrid import ProcessorGrid
from repro.grid.rect import Rect
from repro.sanitize.hooks import get_sanitizer
from repro.obs import get_recorder

__all__ = [
    "PDAResult",
    "aggregate_summaries",
    "aggregate_summaries_reference",
    "parallel_data_analysis",
]


#: the paper's upper OLR bound (W/m²) for deep cloud
OLR_THRESHOLD = 200.0


@dataclass(frozen=True, eq=False)
class PDAResult:
    """Everything the root computes at one adaptation point."""

    rectangles: list[Rect]  # regions of interest (parent grid points)
    #: NNC's clusters as row indices into ``summaries``: clusters in
    #: creation order, members in join order
    clusters: list[np.ndarray]
    summaries: QcloudInfo  # the sorted qcloudinfo the root saw
    gathered_items: int  # elements gathered at the root
    #: True when any split file failed to report
    partial: bool = False
    n_files_missing: int = 0  # missing tiles (lost / truncated writers)
    n_files_corrupt: int = 0  # files with non-finite QCLOUD/OLR payloads
    #: reporting subdomain area / full domain area (1.0 when complete, 0.0
    #: when every split file is lost)
    coverage: float = 1.0
    #: area-weighted low-OLR fraction over *reporting* subdomains only
    low_olr_fraction: float = 0.0


def _files_by_rank(
    batch: SplitBatch, sim_grid: ProcessorGrid, n_analysis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Divide the P split files among N analysis ranks (Algorithm 1, 1–2).

    The subsets are rectangular blocks of the simulation's ``(Px, Py)``
    decomposition: the analysis grid is the most square factorisation of
    ``N`` and each analysis rank receives a contiguous block of subdomains.
    Returns the present tiles ordered by analysis rank, each rank's tiles
    in rank order, and each tile's analysis rank; missing tiles are
    absent.  A tile's analysis column is the number of column boundaries
    at or left of its block, ``(xb[1:] <= block_x).sum()``, found for
    every column by one ``searchsorted`` (likewise for rows).
    """
    ag = ProcessorGrid.square_like(n_analysis)
    xb = split_evenly(sim_grid.px, ag.px)
    yb = split_evenly(sim_grid.py, ag.py)
    ax = np.searchsorted(xb[1:], np.arange(sim_grid.px), side="right")
    ay = np.searchsorted(yb[1:], np.arange(sim_grid.py), side="right")
    present = np.flatnonzero(~batch.missing)
    owner = (ay[:, None] * ag.px + ax[None, :]).ravel()[present]
    order = np.argsort(owner, kind="stable")
    return present[order], owner[order]


def _assign_files(
    batch: SplitBatch, sim_grid: ProcessorGrid, n_analysis: int
) -> list[np.ndarray]:
    """Each analysis rank's files, as an index array of its tiles in rank
    order (:func:`_files_by_rank` cut at the rank boundaries)."""
    tiles, owner = _files_by_rank(batch, sim_grid, n_analysis)
    return np.split(tiles, np.searchsorted(owner, np.arange(1, n_analysis)))


def _runs(bounds: tuple[int, ...]) -> list[tuple[int, int]]:
    """Maximal runs ``[i, j)`` of consecutive tiles of one size on an axis."""
    runs: list[tuple[int, int]] = []
    start = 0
    for i in range(1, len(bounds)):
        if i == len(bounds) - 1 or (
            bounds[i + 1] - bounds[i] != bounds[start + 1] - bounds[start]
        ):
            runs.append((start, i))
            start = i
    return runs


def aggregate_summaries(
    batch: SplitBatch,
    olr_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corruption flag, aggregated QCLOUD and low-OLR count of every tile.

    Returns three arrays in rank order: ``corrupt`` (non-finite QCLOUD/OLR
    — a truncated or garbled payload), ``qcloud`` (the sum of QCLOUD where
    ``OLR <= olr_threshold``) and ``count`` (how many points that is).
    Missing and corrupt tiles read ``0.0`` and ``0``; only corrupt ones are
    flagged.  The threshold is applied once over the whole field and the
    tiles are grouped into rectangles of one tile shape (runs of equal
    width by runs of equal height); each group's counts come from one
    reshape of the mask.  QCLOUD is summed only for tiles with a low-OLR
    point: a group's such tiles are gathered into one contiguous
    ``(n, h, w)`` copy of their masked QCLOUD, so every tile's ``qcloud``
    is summed in the order of its own contiguous copy.  Against the
    file-by-file oracle :func:`aggregate_summaries_reference`, ``corrupt``
    and ``count`` are identical; ``qcloud`` may differ in the last ulp
    because the oracle sums a boolean-indexed copy (see
    ``docs/performance.md``).

    Validation: the batch validated its fields, bounds and damaged tiles
    when it was built; any threshold is meaningful.
    """
    with get_recorder().span("analysis.aggregate", n_files=len(batch)):
        mask = batch.olr <= olr_threshold
        finite = None
        # a sum is finite only when every term is (overflow just takes the
        # exact per-tile path below)
        if not np.isfinite(batch.qcloud.sum() + batch.olr.sum()):
            finite = np.isfinite(batch.qcloud) & np.isfinite(batch.olr)
        n = len(batch)
        corrupt = np.zeros(n, dtype=bool)
        qcloud = np.zeros(n)
        count = np.empty(n, dtype=np.int64)
        xb, yb, px = batch.x_bounds, batch.y_bounds, batch.px
        for y0, y1 in _runs(yb):
            h = yb[y0 + 1] - yb[y0]
            for x0, x1 in _runs(xb):
                w = xb[x0 + 1] - xb[x0]
                ranks = (
                    np.arange(y0, y1)[:, None] * px + np.arange(x0, x1)
                ).ravel()
                window = (slice(yb[y0], yb[y1]), slice(xb[x0], xb[x1]))
                grid = (y1 - y0, h, x1 - x0, w)
                tiles_mask = mask[window].reshape(grid)
                rows = tiles_mask.sum(axis=1, dtype=np.int64)
                count[ranks] = rows.sum(axis=2).ravel()
                # only a tile with low-OLR points has QCLOUD to sum: gather
                # those tiles into contiguous (n, h, w) copies
                take = np.flatnonzero(count[ranks] > 0)
                ty, tx = np.divmod(take, x1 - x0)
                tiles = batch.qcloud[window].reshape(grid)[ty, :, tx]
                low = np.where(tiles_mask[ty, :, tx], tiles, 0.0)
                qcloud[ranks[take]] = low.reshape(len(take), h * w).sum(axis=1)
                if finite is not None:
                    tiles_ok = finite[window].reshape(grid).all(axis=(1, 3))
                    corrupt[ranks] = ~tiles_ok.ravel()
        for rank, (q, o) in batch.damaged.items():
            tile_mask = o <= olr_threshold
            qcloud[rank] = np.where(tile_mask, q, 0.0).sum()
            count[rank] = np.count_nonzero(tile_mask)
            corrupt[rank] = not (np.isfinite(q).all() and np.isfinite(o).all())
        corrupt &= ~batch.missing
        void = corrupt | batch.missing
        qcloud[void] = 0.0
        count[void] = 0
        return corrupt, qcloud, count


def aggregate_summaries_reference(
    batch: SplitBatch,
    olr_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """File-by-file scalar oracle of :func:`aggregate_summaries` (tests only).

    Each present tile is cut into its own :class:`SplitFile` and
    summarised by :meth:`SplitFile.summarise`.

    Validation: as :func:`aggregate_summaries`.
    """
    n = len(batch)
    corrupt = np.zeros(n, dtype=bool)
    qcloud = np.zeros(n)
    count = np.zeros(n, dtype=np.int64)
    for rank in range(n):
        f = batch.file(rank)
        if f is None:
            continue
        if not (np.isfinite(f.qcloud).all() and np.isfinite(f.olr).all()):
            corrupt[rank] = True
            continue
        qcloud[rank], olr_fraction = f.summarise(olr_threshold)
        count[rank] = round(olr_fraction * f.extent.area)
    return corrupt, qcloud, count


def _check_inputs(batch: SplitBatch, sim_grid: ProcessorGrid, n_analysis: int) -> None:
    """Refuse a batch that is not one tile per rank of ``sim_grid``, or an
    ``n_analysis`` outside ``[1, P]``."""
    if (batch.px, batch.py) != (sim_grid.px, sim_grid.py):
        raise ValueError(
            f"expected one split file per simulation rank "
            f"({sim_grid.px}x{sim_grid.py}), got {batch.px}x{batch.py} tiles"
        )
    if not 1 <= n_analysis <= len(batch):
        raise ValueError(
            f"n_analysis must be in [1, {len(batch)}], got {n_analysis}"
        )


def parallel_data_analysis(
    batch: SplitBatch,
    sim_grid: ProcessorGrid,
    n_analysis: int,
) -> PDAResult:
    """Run Algorithm 1 over one step's split files.

    Parameters
    ----------
    batch:
        The ``P`` split files written by the simulation ranks.  Tiles
        marked missing never arrived (crashed or truncated writers); they
        are counted and the result is flagged partial.
    sim_grid:
        The simulation's ``(Px, Py)`` process decomposition (for the
        rectangular division of files among analysis ranks); the batch
        must hold one tile per simulation rank.
    n_analysis:
        ``N``, the number of analysis processes.

    Every tile is reduced once, in one batched pass
    (:func:`aggregate_summaries`), shared by the per-rank analysis and the
    degraded-mode renormalisation.  Clustering runs with the paper's
    :class:`~repro.analysis.nnc.NNCConfig` thresholds.

    Validation: a batch that is not one tile per simulation rank, and an
    ``n_analysis`` outside ``[1, P]``, are refused (``ValueError``).
    """
    _check_inputs(batch, sim_grid, n_analysis)

    with get_recorder().span(
        "analysis.pda", n_files=len(batch), n_analysis=n_analysis
    ):
        n_missing = int(np.count_nonzero(batch.missing))
        # every present tile, by analysis rank and then in rank order
        seen, _ = _files_by_rank(batch, sim_grid, n_analysis)
        corrupt, qcloud, count = aggregate_summaries(batch, OLR_THRESHOLD)
        areas = batch.areas

        # Per-rank analysis and root gather (Algorithm 1, lines 3–11): an
        # analysis rank only reports subdomains containing any low-OLR
        # area — "some of the split files may not have regions with
        # OLR <= 200, in which case the process owning these split files
        # will send fewer than k values" — and skips corrupt files (their
        # count is zero); the root receives the ranks' tuples in rank
        # order.
        gathered = seen[count[seen] > 0]

        # Reporting area: every healthy file.  Renormalise over it: the
        # low-OLR fraction a complete analysis would divide by the whole
        # domain is instead divided by the area that actually reported, so
        # it stays a comparable fraction.  The weighted sum is one left
        # fold in (rank, bucket) order.
        healthy = seen[~corrupt[seen]]
        seen_area = areas[healthy]
        reporting_area = int(seen_area.sum())
        weighted = np.cumsum(count[healthy] / seen_area * seen_area)
        weighted_low_olr = float(weighted[-1]) if len(weighted) else 0.0
        low_olr = weighted_low_olr / reporting_area if reporting_area else 0.0

        n_corrupt = int(np.count_nonzero(corrupt))  # missing tiles never are
        partial = bool(n_missing or n_corrupt)
        coverage = reporting_area / batch.qcloud.size

        # Sort (line 13) + NNC (line 14) + rectangles (lines 16–19).
        block_y, block_x = np.divmod(gathered, batch.px)
        qcloudinfo = QcloudInfo.sort_gathered(
            gathered,
            block_x,
            block_y,
            qcloud[gathered],
            count[gathered] / areas[gathered],
            batch.x_bounds,
            batch.y_bounds,
        )
        clusters = nearest_neighbour_clustering(qcloudinfo)
        rectangles = clusters_to_rectangles(qcloudinfo, clusters)
        if partial:
            get_recorder().emit(
                "pda.partial",
                missing=n_missing,
                corrupt=n_corrupt,
                coverage=round(coverage, 6),
            )
        result = PDAResult(
            rectangles=rectangles,
            clusters=clusters,
            summaries=qcloudinfo,
            gathered_items=len(qcloudinfo),
            partial=partial,
            n_files_missing=n_missing,
            n_files_corrupt=n_corrupt,
            coverage=coverage,
            low_olr_fraction=low_olr,
        )
        sanitizer = get_sanitizer()
        if sanitizer.enabled:
            sanitizer.after_pda(result)
        return result
