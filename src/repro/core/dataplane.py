"""The data plane: actually executing a redistribution.

Everything else in :mod:`repro.core` *costs* redistributions; this module
*performs* them on simulated per-rank memory, the way the paper's modified
WRF does with ``MPI_Alltoallv``:

* :class:`RankStore` holds every nest as one :class:`NestRecord`: its
  processor rectangle, its size and one flat buffer in which each holding
  rank's block (exactly the state a WRF process owns) is a contiguous
  slab;
* :func:`scatter_nest` gives each rank of an allocation its block of a
  full nest field (the initial interpolation onto a fresh nest);
* :func:`execute_redistribution` executes one planned
  :class:`~repro.core.redistribution.NestMove`: every point goes from its
  old owner's slab to its new owner's slab;
* :func:`gather_nest` reassembles the full field from the owners.

Scatter and gather are one strided copy per block shape (at most four),
and a move is one ``take`` — or nothing, when the nest's new rectangle
has its old one's width and height, because the slab layout is
rect-relative and the new record keeps the old buffer.  The end-to-end
invariant — *gather after any
chain of redistributions returns the original field bit-for-bit* — is
what the integration tests and the failure-injection tests check.  This
is the paper's contribution 2 ("a framework that supports dynamic nest
formation and processor rescheduling within a running simulation") made
executable.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import Allocation
from repro.core.redistribution import NestMove
from repro.grid.block import BlockDecomposition, split_evenly
from repro.grid.overlap import merged_segments
from repro.grid.rect import Rect
from repro.mpisim.ledger import CommLedger
from repro.obs import get_recorder
from repro.sanitize.hooks import get_sanitizer
from repro.util.rng import make_rng
from repro.util.validation import check_positive

__all__ = [
    "NestRecord",
    "RankStore",
    "scatter_nest",
    "execute_redistribution",
    "gather_nest",
    "BackoffPolicy",
    "RetryOutcome",
    "TransientRedistributionError",
    "RedistributionAbortedError",
    "execute_redistribution_with_retry",
]

#: one nest's blocks as the per-block oracles hold them: rank -> (block, rect)
Blocks = dict[int, tuple[np.ndarray, Rect]]


def _block(n: int, parts: int, k: int) -> tuple[int, int]:
    """First point and size of block ``k`` of :func:`split_evenly`'s split."""
    base, extra = divmod(n, parts)
    return k * base + min(k, extra), base + (k < extra)


def _runs(n: int, parts: int) -> list[tuple[int, int, int]]:
    """:func:`split_evenly`'s split of ``n`` as runs of equal blocks.

    Each run is ``(first point, blocks, block size)``, the larger blocks
    first; zero-size blocks (more parts than points) own no run.
    """
    base, extra = divmod(n, parts)
    runs = [(0, extra, base + 1)] if extra else []
    if base:
        runs.append((extra * (base + 1), parts - extra, base))
    return runs


def _slab_views(
    buf: np.ndarray, grid: np.ndarray, w: int, h: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(slabs, blocks)`` views of each block-shape rectangle of a layout.

    ``grid`` is an ``(ny, nx)`` nest field split over a ``w x h``
    processor rectangle and ``buf`` its ``nx * ny`` record buffer.  Both
    views are ``(nbj, nbi, bh, bw)`` arrays of the same blocks, so one
    assignment between them copies every block of that shape.
    """
    ny, nx = grid.shape
    xruns = _runs(nx, w)
    for y0, nbj, bh in _runs(ny, h):
        band = buf[y0 * nx : (y0 + nbj * bh) * nx].reshape(nbj, bh * nx)
        rows = grid[y0 : y0 + nbj * bh]
        for x0, nbi, bw in xruns:
            slabs = band[:, x0 * bh : (x0 + nbi * bw) * bh]
            blocks = rows[:, x0 : x0 + nbi * bw].reshape(nbj, bh, nbi, bw)
            yield slabs.reshape(nbj, nbi, bh, bw), blocks.transpose(0, 2, 1, 3)


@dataclass(frozen=True, eq=False)
class NestRecord:
    """One nest's distributed state.

    ``rect`` is the nest's processor rectangle on a grid ``px`` ranks wide
    (rank ``y * px + x``), and ``buf`` holds all ``nx * ny`` points.  With
    ``xb = split_evenly(nx, rect.w)`` and ``yb = split_evenly(ny, rect.h)``,
    the block of rect-relative processor ``(i, j)`` is the row-major
    ``h_j x w_i`` slab at ``buf[yb[j] * nx + xb[i] * h_j]``.  A block row's
    blocks fill exactly the buffer range its rows fill in the nest, so
    every slab is contiguous and every block-shape rectangle is one
    strided view.
    """

    rect: Rect
    px: int
    nx: int
    ny: int
    buf: np.ndarray

    def block_of(self, rank: int) -> tuple[np.ndarray, Rect] | None:
        """A view of ``rank``'s slab and the nest points it covers.

        Validation: any rank is acceptable — one outside the rectangle
        holds no block and returns ``None``.
        """
        y, x = divmod(rank, self.px)
        if rank < 0 or not self.rect.contains_point(x, y):
            return None
        x0, w = _block(self.nx, self.rect.w, x - self.rect.x0)
        y0, h = _block(self.ny, self.rect.h, y - self.rect.y0)
        start = y0 * self.nx + x0 * h
        return self.buf[start : start + h * w].reshape(h, w), Rect(x0, y0, w, h)


@dataclass
class RankStore:
    """Every nest's distributed state: ``nests[nest_id] -> NestRecord``.

    A rank's block of a nest is its slab of the nest's record; :meth:`get`
    views it, so writing the view writes the store.  Records are only
    installed whole (:func:`scatter_nest`, :func:`execute_redistribution`),
    so a held nest tiles its grid by construction.
    """

    nranks: int
    nests: dict[int, NestRecord] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")

    def get(self, rank: int, nest_id: int) -> tuple[np.ndarray, Rect]:
        """A view of ``rank``'s block of ``nest_id`` and the nest points
        it covers; ``KeyError`` when ``rank`` holds no block of it."""
        record = self.nests.get(nest_id)
        held = record.block_of(rank) if record is not None else None
        if held is None:
            raise KeyError(f"rank {rank} holds no block of nest {nest_id}")
        return held

    def drop_nest(self, nest_id: int) -> int:
        """Free every rank's storage of a deleted nest; returns blocks freed.

        Validation: any nest id is acceptable — unknown ids free nothing
        and report 0 blocks.
        """
        record = self.nests.pop(nest_id, None)
        return record.rect.area if record is not None else 0

    def holders(self, nest_id: int) -> list[int]:
        """Ranks currently holding a block of ``nest_id``, ascending.

        Validation: any nest id is acceptable — an unknown id simply
        holds no blocks and returns the empty list.
        """
        record = self.nests.get(nest_id)
        if record is None:
            return []
        rect, px = record.rect, record.px
        return [
            y * px + x for y in range(rect.y0, rect.y1) for x in range(rect.x0, rect.x1)
        ]


def _check_fits(store: RankStore, allocation: Allocation) -> None:
    if allocation.grid.nprocs > store.nranks:
        raise ValueError(
            f"allocation grid {allocation.grid} has {allocation.grid.nprocs} "
            f"ranks; the store holds {store.nranks}"
        )


def scatter_nest(
    store: RankStore,
    nest_id: int,
    field_data: np.ndarray,
    allocation: Allocation,
) -> None:
    """Distribute a full nest field over its allocated rectangle.

    This is what happens when a nest spawns: the parent-interpolated field
    is block-decomposed over the nest's processor rectangle, each rank
    receiving its block — one strided copy per block shape into the
    nest's new record.

    Validation: the field must be 2-D and non-empty, and the allocation's
    grid must fit the store's ranks (``ValueError``).
    """
    if field_data.ndim != 2 or 0 in field_data.shape:
        raise ValueError(
            f"field_data must be a non-empty 2-D (ny, nx) array, got shape "
            f"{field_data.shape}"
        )
    _check_fits(store, allocation)
    ny, nx = field_data.shape
    with get_recorder().span("dataplane.scatter", nest=nest_id):
        rect = allocation.rect_of(nest_id)
        buf = np.empty(nx * ny, dtype=field_data.dtype)
        for slabs, blocks in _slab_views(buf, field_data, rect.w, rect.h):
            slabs[...] = blocks
        store.nests[nest_id] = NestRecord(rect, allocation.grid.px, nx, ny, buf)
    sanitizer = get_sanitizer()
    if sanitizer.enabled:
        sanitizer.after_scatter(store, nest_id, nx, ny)


def _scatter_nest_reference(
    nest_id: int,
    field_data: np.ndarray,
    allocation: Allocation,
) -> Blocks:
    """Per-cell scalar oracle of :func:`scatter_nest` (tests only): every
    rank's block of the field, with the nest points it covers."""
    ny, nx = field_data.shape
    decomp = allocation.decomposition(nest_id, nx, ny)
    rect = allocation.rect_of(nest_id)
    blocks: Blocks = {}
    for j in range(rect.h):
        for i in range(rect.w):
            blk = decomp.block_of(i, j)
            rank = allocation.grid.rank(rect.x0 + i, rect.y0 + j)
            blocks[rank] = (field_data[blk.y0 : blk.y1, blk.x0 : blk.x1].copy(), blk)
    return blocks


def _axis_offsets(n: int, old_parts: int, new_parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Per point of one axis: the first point of its old block, and its
    offset inside that block.

    The old block of every point comes from
    :func:`~repro.grid.overlap.merged_segments`, the walk the plan's
    transfer matrix uses.
    """
    cuts, old_idx, _ = merged_segments(n, old_parts, new_parts)
    start = np.repeat(split_evenly(n, old_parts)[old_idx], np.diff(cuts))
    return start, np.arange(n) - start


def _take_index(nx: int, ny: int, old_rect: Rect, new_rect: Rect) -> np.ndarray:
    """Old-buffer position of every point of the new buffer.

    Point ``(x, y)`` of old block ``(i, j)`` sits at slab position
    ``yb[j] * nx + xb[i] * h_j + (y - yb[j]) * w_i + (x - xb[i])`` of the
    old buffer: over each old block-shape rectangle, one outer sum.  The
    new record's views then cut that position field into the new layout.
    """
    xstart, dx = _axis_offsets(nx, old_rect.w, new_rect.w)
    ystart, dy = _axis_offsets(ny, old_rect.h, new_rect.h)
    pos = np.empty((ny, nx), dtype=np.intp)
    for y0, nbj, h in _runs(ny, old_rect.h):
        ys = slice(y0, y0 + nbj * h)
        for x0, nbi, w in _runs(nx, old_rect.w):
            xs = slice(x0, x0 + nbi * w)
            np.add.outer(ystart[ys] * nx + dy[ys] * w, xstart[xs] * h + dx[xs], out=pos[ys, xs])
    index = np.empty(nx * ny, dtype=np.intp)
    for slabs, blocks in _slab_views(index, pos, new_rect.w, new_rect.h):
        slabs[...] = blocks
    return index


def execute_redistribution(
    store: RankStore, move: NestMove, old: Allocation, new: Allocation
) -> None:
    """Execute one planned move: the nest's blocks go from ``old`` owners
    to ``new`` owners, at the size ``move`` was priced at.

    Implements the alltoallv data movement: every receiver's new block is
    assembled from the slices of the senders whose old blocks intersect it
    (paper Fig. 3: processor 16 receives from 0, 1, 4 and 5).  Each point
    goes straight from its old owner's slab to its new owner's slab: the
    new record's buffer is one ``take`` from the old one, and the old
    record is freed.  A new rectangle of the old one's width and height
    lays every point out where it already is, so the new record keeps the
    old buffer.

    Validation: the move's size was checked when it was planned; a store
    that does not hold the nest on ``old``'s rectangle at the move's size
    raises ``KeyError``, and a ``new`` grid wider than the store
    ``ValueError``.
    """
    nest_id, nx, ny = move.nest_id, move.nx, move.ny
    with get_recorder().span("dataplane.redistribute", nest=nest_id):
        record = store.nests.get(nest_id)
        old_rect = old.rect_of(nest_id)
        layout = (old_rect, old.grid.px, nx, ny)
        if record is None or (record.rect, record.px, record.nx, record.ny) != layout:
            raise KeyError(f"the store holds no {nx}x{ny} nest {nest_id} on {old_rect}")
        _check_fits(store, new)
        new_rect = new.rect_of(nest_id)
        buf = record.buf
        if (new_rect.w, new_rect.h) != (old_rect.w, old_rect.h):
            buf = buf.take(_take_index(nx, ny, old_rect, new_rect))
        store.nests[nest_id] = NestRecord(new_rect, new.grid.px, nx, ny, buf)
    sanitizer = get_sanitizer()
    if sanitizer.enabled:
        sanitizer.after_execute(store, move)


def _move_blocks_reference(
    blocks: Blocks,
    nest_id: int,
    old: Allocation,
    new: Allocation,
    old_decomp: BlockDecomposition,
    new_decomp: BlockDecomposition,
) -> Blocks:
    """Per-block-pair data movement of :func:`execute_redistribution`
    (the scalar oracle; tests only): the new owners' blocks, assembled
    from the old owners' ``blocks``."""
    # Stage 1: receivers allocate their new blocks.
    new_rect = new.rect_of(nest_id)
    incoming: Blocks = {}
    for j in range(new_rect.h):
        for i in range(new_rect.w):
            blk = new_decomp.block_of(i, j)
            rank = new.grid.rank(new_rect.x0 + i, new_rect.y0 + j)
            incoming[rank] = (np.empty((blk.h, blk.w)), blk)

    # Stage 2: every (sender, receiver) pair ships the intersection of the
    # sender's old block with the receiver's new block.
    old_rect = old.rect_of(nest_id)
    for j in range(old_rect.h):
        for i in range(old_rect.w):
            src_rank = old.grid.rank(old_rect.x0 + i, old_rect.y0 + j)
            src_block, src_rect = blocks[src_rank]
            # receivers overlapping this sender's block
            i0 = int(np.searchsorted(new_decomp.x_bounds, src_rect.x0, "right")) - 1
            i1 = int(np.searchsorted(new_decomp.x_bounds, src_rect.x1 - 1, "right")) - 1
            j0 = int(np.searchsorted(new_decomp.y_bounds, src_rect.y0, "right")) - 1
            j1 = int(np.searchsorted(new_decomp.y_bounds, src_rect.y1 - 1, "right")) - 1
            for rj in range(j0, j1 + 1):
                for ri in range(i0, i1 + 1):
                    dst_rank = new.grid.rank(new_rect.x0 + ri, new_rect.y0 + rj)
                    dst_block, dst_rect = incoming[dst_rank]
                    inter = src_rect.intersect(dst_rect)
                    if inter.is_empty:
                        continue
                    dst_block[
                        inter.y0 - dst_rect.y0 : inter.y1 - dst_rect.y0,
                        inter.x0 - dst_rect.x0 : inter.x1 - dst_rect.x0,
                    ] = src_block[
                        inter.y0 - src_rect.y0 : inter.y1 - src_rect.y0,
                        inter.x0 - src_rect.x0 : inter.x1 - src_rect.x0,
                    ]
    return incoming


def gather_nest(store: RankStore, nest_id: int, nx: int, ny: int) -> np.ndarray:
    """Reassemble the full nest field from its current owners: one
    strided copy per block shape out of the nest's record.

    Raises :class:`ValueError` if the store does not hold the nest at
    ``nx x ny`` (a dropped or regridded nest would be caught here).
    """
    with get_recorder().span("dataplane.gather", nest=nest_id):
        record = store.nests.get(nest_id)
        if record is None or (record.nx, record.ny) != (nx, ny):
            raise ValueError(f"nest {nest_id}: the store holds no {nx}x{ny} record")
        out = np.empty((ny, nx), dtype=record.buf.dtype)
        for slabs, blocks in _slab_views(record.buf, out, record.rect.w, record.rect.h):
            blocks[...] = slabs
        return out


# -- self-healing execution (repro.faults) ------------------------------


class TransientRedistributionError(RuntimeError):
    """One redistribution round failed in a retryable way.

    Raised by a round-fault callback (usually a fault injector) to model a
    lost or interrupted alltoallv round; the self-healing executor retries
    the round with backoff.
    """


class RedistributionAbortedError(RuntimeError):
    """Every retry attempt failed; the round was never applied.

    The store is untouched — callers fall back to the last checkpoint
    (:mod:`repro.faults.checkpoint`) rather than replaying the epoch.
    """

    def __init__(self, nest_id: int, attempts: int, total_delay: float) -> None:
        super().__init__(
            f"nest {nest_id}: redistribution aborted after {attempts} "
            f"attempts ({total_delay:.3g}s of simulated backoff)"
        )
        self.nest_id = nest_id
        self.attempts = attempts
        self.total_delay = total_delay


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff with seeded jitter.

    All delays are *simulated* seconds — pure numbers accumulated into the
    outcome, never slept (wall-clock reads outside :mod:`repro.obs` are
    banned by lint rule R007).  The jitter draw comes from
    :func:`repro.util.rng.make_rng`, so a (seed, nest) pair always yields
    the same delay sequence.
    """

    base_delay: float = 0.05  # simulated seconds before the first retry
    multiplier: float = 2.0
    max_delay: float = 2.0  # per-retry cap (before jitter)
    max_attempts: int = 5  # total tries, including the first
    jitter: float = 0.25  # ± fraction of the nominal delay

    def __post_init__(self) -> None:
        check_positive("base_delay", self.base_delay)
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay {self.max_delay} < base_delay {self.base_delay}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, retry: int, rng: np.random.Generator) -> float:
        """Simulated delay before retry number ``retry`` (1-based)."""
        if retry < 1:
            raise ValueError(f"retry index must be >= 1, got {retry}")
        nominal = min(
            self.base_delay * self.multiplier ** (retry - 1), self.max_delay
        )
        spread = self.jitter * (2.0 * float(rng.random()) - 1.0)
        return nominal * (1.0 + spread)


@dataclass(frozen=True)
class RetryOutcome:
    """What one self-healing redistribution actually took."""

    nest_id: int
    attempts: int  # tries made, including the successful one
    delays: tuple[float, ...]  # simulated backoff before each retry
    retried_bytes: float  # wire bytes re-sent by attempts after the first

    @property
    def total_delay(self) -> float:
        return sum(self.delays)

    @property
    def recovered(self) -> bool:
        """True when success needed at least one retry."""
        return self.attempts > 1


def execute_redistribution_with_retry(
    store: RankStore,
    move: NestMove,
    old: Allocation,
    new: Allocation,
    *,
    policy: BackoffPolicy | None = None,
    round_fault: Callable[[int], None] | None = None,
    seed: int = 0,
    ledger: CommLedger | None = None,
) -> RetryOutcome:
    """Execute one planned move, retrying failed rounds with backoff.

    ``round_fault(attempt)`` runs before try number ``attempt`` (0-based);
    a :class:`TransientRedistributionError` it raises fails that try,
    which is retried after a seeded-jitter backoff delay (see :class:`BackoffPolicy`)
    until ``policy.max_attempts`` is exhausted, at which point
    :class:`RedistributionAbortedError` is raised with the store untouched.
    The data movement itself is applied exactly once, on the winning try
    (:func:`execute_redistribution`), so the bit-for-bit gather invariant
    is preserved through any number of failed rounds.  Each failed try
    re-sends the move's own :class:`~repro.mpisim.alltoallv.MessageSet`;
    when a ``ledger`` is given, those bytes are attributed to their
    senders via :meth:`CommLedger.add_retry`.
    """
    policy = policy or BackoffPolicy()
    nest_id, messages = move.nest_id, move.messages
    rng = make_rng((seed * 1_000_003 + nest_id) % 2**63)
    flight = get_recorder()

    delays: list[float] = []
    retried_bytes = 0.0
    with get_recorder().span("dataplane.redistribute_retry", nest=nest_id):
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                backoff = policy.delay(attempt, rng)
                delays.append(backoff)
                retried_bytes += float(messages.total_bytes)
                if ledger is not None:
                    ledger.add_retry(messages)
                flight.emit(
                    "redist.retry",
                    nest=nest_id,
                    attempt=attempt,
                    backoff=round(backoff, 6),
                )
            try:
                if round_fault is not None:
                    round_fault(attempt)
            except TransientRedistributionError as exc:
                flight.emit(
                    "redist.round_failed",
                    nest=nest_id,
                    attempt=attempt,
                    reason=str(exc),
                )
                continue
            execute_redistribution(store, move, old, new)
            if attempt > 0:
                flight.emit(
                    "redist.recovered",
                    nest=nest_id,
                    attempts=attempt + 1,
                    total_backoff=round(sum(delays), 6),
                )
            return RetryOutcome(
                nest_id=nest_id,
                attempts=attempt + 1,
                delays=tuple(delays),
                retried_bytes=retried_bytes,
            )
    flight.emit(
        "redist.aborted",
        nest=nest_id,
        attempts=policy.max_attempts,
        total_backoff=round(sum(delays), 6),
    )
    raise RedistributionAbortedError(nest_id, policy.max_attempts, sum(delays))
