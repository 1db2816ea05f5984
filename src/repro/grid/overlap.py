"""Sender/receiver transfer matrices and ownership overlap (paper Fig. 11).

When a retained nest's processor rectangle changes from ``old`` to ``new``,
each *sender* (old owner) must ship every nest point that a different
*receiver* (new owner) now owns.  Points whose old and new owner coincide
need no network transfer — the paper's "percentage of overlap of data
points between the senders and receivers".

The computation is interval-based rather than per-point: the merged x (and
y) block boundaries of the two decompositions cut the nest into at most
``(w_old + w_new) * (h_old + h_new)`` cells, each owned by exactly one
(sender, receiver) pair, so the full transfer matrix of a 361 x 361 nest on
hundreds of processors costs microseconds.  :func:`merged_segments` merges
one axis's two balanced splits in a single integer walk; the planner here
and the data plane's block mover both walk its segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.block import BlockDecomposition

__all__ = [
    "merged_segments",
    "ownership_map",
    "overlap_fraction",
    "transfer_matrix",
    "TransferMatrix",
]


def ownership_map(decomp: BlockDecomposition, grid_px: int) -> np.ndarray:
    """Global owner rank of every nest point, shaped ``(ny, nx)``."""
    return decomp.owner_grid(grid_px)


def merged_segments(
    n: int, old_parts: int, new_parts: int
) -> tuple[list[int], list[int], list[int]]:
    """Merge one axis's old and new balanced splits into common segments.

    Both splits cut the same ``n`` points (:func:`~repro.grid.block.split_evenly`:
    block ``i`` of ``parts`` ends at ``(i + 1) * base + min(i + 1, extra)``
    with ``base, extra = divmod(n, parts)``).  One walk over the two
    boundary sequences returns ``(cuts, old_idx, new_idx)``: segment ``k``
    covers ``[cuts[k], cuts[k + 1])`` and lies inside old block
    ``old_idx[k]`` and new block ``new_idx[k]``.  Zero-width blocks (more
    parts than points) all sit at the end of the axis and own no segment.
    Consecutive segments differ in at least one index and both indices
    are non-decreasing, so no (old, new) pair repeats.
    """
    obase, oextra = divmod(n, old_parts)
    nbase, nextra = divmod(n, new_parts)
    oend = obase + (oextra > 0)
    nend = nbase + (nextra > 0)
    i = j = 0
    cuts = [0]
    old_idx: list[int] = []
    new_idx: list[int] = []
    while True:
        end = oend if oend < nend else nend
        cuts.append(end)
        old_idx.append(i)
        new_idx.append(j)
        if end == n:
            return cuts, old_idx, new_idx
        if end == oend:
            i += 1
            oend += obase + (i < oextra)
        if end == nend:
            j += 1
            nend += nbase + (j < nextra)


def _merged_segments_reference(
    old_bounds: np.ndarray, new_bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge two boundary arrays into common segments (tests only).

    Returns ``(lengths, old_idx, new_idx)``: for each merged segment its
    point count and the old/new block index owning it.
    """
    cuts = np.union1d(old_bounds, new_bounds)
    lengths = np.diff(cuts)
    starts = cuts[:-1]
    old_idx = np.searchsorted(old_bounds, starts, side="right") - 1
    new_idx = np.searchsorted(new_bounds, starts, side="right") - 1
    keep = lengths > 0
    return lengths[keep], old_idx[keep], new_idx[keep]


@dataclass(frozen=True)
class TransferMatrix:
    """Sparse (sender, receiver, points) triples for one nest's move.

    ``senders``/``receivers`` are global ranks; ``points`` the number of
    nest grid points each pair exchanges.  Pairs with ``sender == receiver``
    are *local copies* (zero network traffic) and are retained so that
    conservation can be checked: ``points.sum() == nx * ny``.
    """

    senders: np.ndarray
    receivers: np.ndarray
    points: np.ndarray
    total_points: int

    def __post_init__(self) -> None:
        n = len(self.senders)
        if len(self.receivers) != n or len(self.points) != n:
            raise ValueError("senders/receivers/points must have equal length")

    @property
    def network_mask(self) -> np.ndarray:
        """True for entries that actually cross the network."""
        return self.senders != self.receivers

    @property
    def local_points(self) -> int:
        """Points whose owner did not change (no communication needed)."""
        return int(self.points[~self.network_mask].sum())

    @property
    def network_points(self) -> int:
        """Points that must be sent over the network."""
        return int(self.points[self.network_mask].sum())

    @property
    def overlap_fraction(self) -> float:
        """Fraction of nest points whose old and new owner coincide."""
        return self.local_points / self.total_points

    def bytes_per_pair(self, bytes_per_point: float) -> np.ndarray:
        """Message size in bytes for each (sender, receiver) pair."""
        return self.points * float(bytes_per_point)


def transfer_matrix(
    old: BlockDecomposition, new: BlockDecomposition, grid_px: int
) -> TransferMatrix:
    """Transfer matrix for a nest moving from ``old`` to ``new`` processors.

    Both decompositions must describe the same nest (``nx``/``ny`` equal).
    Entries are sorted by (sender, receiver).  Each (x-segment, y-segment)
    cell of :func:`merged_segments` is a distinct pair, because each
    axis's (old block, new block) pairs are unique and a rank is one
    block position, so no pair's points need summing.
    """
    if (old.nx, old.ny) != (new.nx, new.ny):
        raise ValueError(
            f"decompositions describe different nests: "
            f"{old.nx}x{old.ny} vs {new.nx}x{new.ny}"
        )
    orect, nrect = old.proc_rect, new.proc_rect
    xcuts, oxi, nxi = merged_segments(old.nx, orect.w, nrect.w)
    ycuts, oyj, nyj = merged_segments(old.ny, orect.h, nrect.h)
    xc = np.array(xcuts, dtype=np.int64)
    yc = np.array(ycuts, dtype=np.int64)

    # Rank of a rect-relative block (i, j): (y0 + j) * grid_px + x0 + i.
    old_row = np.array(oyj, dtype=np.int64) * grid_px + (orect.y0 * grid_px + orect.x0)
    new_row = np.array(nyj, dtype=np.int64) * grid_px + (nrect.y0 * grid_px + nrect.x0)
    send = (old_row[:, None] + np.array(oxi, dtype=np.int64)).ravel()
    recv = (new_row[:, None] + np.array(nxi, dtype=np.int64)).ravel()
    pts = ((yc[1:] - yc[:-1])[:, None] * (xc[1:] - xc[:-1])).ravel()

    key = send * (grid_px * max(orect.y1, nrect.y1) + 1) + recv
    order = np.argsort(key, kind="stable")
    return TransferMatrix(
        senders=send[order],
        receivers=recv[order],
        points=pts[order],
        total_points=old.nx * old.ny,
    )


def _transfer_matrix_reference(
    old: BlockDecomposition, new: BlockDecomposition, grid_px: int
) -> TransferMatrix:
    """Boundary-array merge with a duplicate-pair group-by (tests only).

    The specification of :func:`transfer_matrix`: ``union1d`` and
    ``searchsorted`` over each axis's split arrays, then the points of
    equal (sender, receiver) keys summed.
    """
    if (old.nx, old.ny) != (new.nx, new.ny):
        raise ValueError(
            f"decompositions describe different nests: "
            f"{old.nx}x{old.ny} vs {new.nx}x{new.ny}"
        )
    xlen, oxi, nxi = _merged_segments_reference(old.x_bounds, new.x_bounds)
    ylen, oyj, nyj = _merged_segments_reference(old.y_bounds, new.y_bounds)

    # Rect-relative block indices -> global ranks, per merged segment.
    old_rank_x = old.proc_rect.x0 + oxi
    old_rank_y = old.proc_rect.y0 + oyj
    new_rank_x = new.proc_rect.x0 + nxi
    new_rank_y = new.proc_rect.y0 + nyj

    send = (old_rank_y[:, None] * grid_px + old_rank_x[None, :]).ravel()
    recv = (new_rank_y[:, None] * grid_px + new_rank_x[None, :]).ravel()
    pts = (ylen[:, None] * xlen[None, :]).ravel()

    # Aggregate duplicate (sender, receiver) pairs.
    nprocs_bound = grid_px * max(
        old.proc_rect.y1, new.proc_rect.y1
    )  # safe key stride
    key = send * (nprocs_bound + 1) + recv
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    group_start = np.concatenate(([True], key_sorted[1:] != key_sorted[:-1]))
    group_id = np.cumsum(group_start) - 1
    agg_pts = np.zeros(group_id[-1] + 1, dtype=np.int64)
    np.add.at(agg_pts, group_id, pts[order])
    first = np.flatnonzero(group_start)
    return TransferMatrix(
        senders=send[order][first],
        receivers=recv[order][first],
        points=agg_pts,
        total_points=old.nx * old.ny,
    )


def overlap_fraction(
    old: BlockDecomposition, new: BlockDecomposition, grid_px: int
) -> float:
    """Fraction of nest points keeping the same owner (paper Fig. 11)."""
    return transfer_matrix(old, new, grid_px).overlap_fraction
