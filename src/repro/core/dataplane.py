"""The data plane: actually executing a redistribution.

Everything else in :mod:`repro.core` *costs* redistributions; this module
*performs* them on simulated per-rank memory, the way the paper's modified
WRF does with ``MPI_Alltoallv``:

* :class:`RankStore` holds every rank's local nest blocks (rank →
  nest id → block array, exactly the state a WRF process owns);
* :func:`scatter_nest` gives each rank of an allocation its block of a
  full nest field (the initial interpolation onto a fresh nest);
* :func:`execute_redistribution` moves blocks from the old owners to the
  new owners following a :class:`~repro.grid.overlap.TransferMatrix` —
  senders slice their block, receivers assemble theirs;
* :func:`gather_nest` reassembles the full field from the owners.

The end-to-end invariant — *gather after any chain of redistributions
returns the original field bit-for-bit* — is what the integration tests
and the failure-injection tests check.  This is the paper's contribution 2
("a framework that supports dynamic nest formation and processor
rescheduling within a running simulation") made executable.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import Allocation
from repro.grid.block import BlockDecomposition
from repro.grid.overlap import TransferMatrix, transfer_matrix
from repro.grid.rect import Rect
from repro.mpisim.alltoallv import messages_from_transfer
from repro.mpisim.ledger import CommLedger
from repro.obs import get_flight_recorder, get_recorder
from repro.sanitize.hooks import get_sanitizer
from repro.util.rng import make_rng
from repro.util.validation import check_positive

__all__ = [
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


@dataclass
class RankStore:
    """Per-rank nest storage: ``blocks[rank][nest_id] -> (block, rect)``.

    ``rect`` records which nest points the block covers, in nest
    coordinates — the ground truth the assembly step is checked against.
    """

    nranks: int
    blocks: dict[int, dict[int, tuple[np.ndarray, Rect]]] = field(default_factory=dict)
    #: nest id -> ranks that hold (or held) a block of it.  ``put`` and
    #: ``drop_nest`` keep it exact; code that deletes from ``blocks``
    #: directly (fault injectors) leaves stale entries, so readers
    #: re-verify membership against ``blocks`` — the index is a superset,
    #: never a subset, of the true holder set.
    _nest_holders: dict[int, set[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        for rank, rank_blocks in self.blocks.items():
            for nest_id in rank_blocks:
                self._nest_holders.setdefault(nest_id, set()).add(rank)

    def put(self, rank: int, nest_id: int, block: np.ndarray, rect: Rect) -> None:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")
        if block.shape != (rect.h, rect.w):
            raise ValueError(
                f"block shape {block.shape} does not match rect {rect}"
            )
        self.blocks.setdefault(rank, {})[nest_id] = (block, rect)
        self._nest_holders.setdefault(nest_id, set()).add(rank)

    def get(self, rank: int, nest_id: int) -> tuple[np.ndarray, Rect]:
        try:
            return self.blocks[rank][nest_id]
        except KeyError:
            raise KeyError(f"rank {rank} holds no block of nest {nest_id}") from None

    def drop_nest(self, nest_id: int) -> int:
        """Free every rank's storage of a deleted nest; returns blocks freed.

        Validation: any nest id is acceptable — unknown ids free nothing
        and report 0 blocks.  Costs O(ranks holding the nest), not
        O(all ranks) — the holder index says who to visit.
        """
        n = 0
        for rank in self._nest_holders.pop(nest_id, ()):
            rank_blocks = self.blocks.get(rank)
            if rank_blocks is not None and rank_blocks.pop(nest_id, None) is not None:
                n += 1
        return n

    def holders(self, nest_id: int) -> list[int]:
        """Ranks currently holding a block of ``nest_id``.

        O(ranks holding the nest) via the holder index; stale index
        entries (blocks deleted behind the store's back) are filtered
        out and pruned.

        Validation: any nest id is acceptable — an unknown id simply
        holds no blocks and returns the empty list.
        """
        ranks = self._nest_holders.get(nest_id)
        if not ranks:
            return []
        live = sorted(
            rank for rank in ranks if nest_id in self.blocks.get(rank, {})
        )
        if len(live) != len(ranks):
            self._nest_holders[nest_id] = set(live)
        return live

    def memory_bytes(self, rank: int) -> int:
        """Bytes of nest state held by ``rank`` (for memory accounting)."""
        return sum(
            block.nbytes for block, _ in self.blocks.get(rank, {}).values()
        )


def scatter_nest(
    store: RankStore,
    nest_id: int,
    field_data: np.ndarray,
    allocation: Allocation,
) -> BlockDecomposition:
    """Distribute a full nest field over its allocated rectangle.

    This is what happens when a nest spawns: the parent-interpolated field
    is block-decomposed over the nest's processor rectangle, each rank
    receiving its block.  Returns the decomposition for later transfers.
    """
    if field_data.ndim != 2:
        raise ValueError(f"field_data must be 2-D (ny, nx), got shape {field_data.shape}")
    ny, nx = field_data.shape
    with get_recorder().span("dataplane.scatter", nest=nest_id):
        decomp = allocation.decomposition(nest_id, nx, ny)
        rect = allocation.rect_of(nest_id)
        # Split boundaries and the rank grid are computed once (block_of
        # recomputes both bounds arrays per cell) and each rank's slab is
        # copied by a precomputed slice.
        xb, yb = decomp.x_bounds, decomp.y_bounds
        ranks = allocation.grid.rank_grid(rect)
        for j in range(rect.h):
            y0, y1 = int(yb[j]), int(yb[j + 1])
            for i in range(rect.w):
                x0, x1 = int(xb[i]), int(xb[i + 1])
                store.put(
                    int(ranks[j, i]),
                    nest_id,
                    field_data[y0:y1, x0:x1].copy(),
                    Rect(x0, y0, x1 - x0, y1 - y0),
                )
    sanitizer = get_sanitizer()
    if sanitizer.enabled:
        sanitizer.after_scatter(store, nest_id, nx, ny)
    return decomp


def _scatter_nest_reference(
    store: RankStore,
    nest_id: int,
    field_data: np.ndarray,
    allocation: Allocation,
) -> BlockDecomposition:
    """Per-cell scalar oracle of :func:`scatter_nest` (tests only)."""
    ny, nx = field_data.shape
    decomp = allocation.decomposition(nest_id, nx, ny)
    rect = allocation.rect_of(nest_id)
    for j in range(rect.h):
        for i in range(rect.w):
            blk = decomp.block_of(i, j)
            rank = allocation.grid.rank(rect.x0 + i, rect.y0 + j)
            store.put(
                rank,
                nest_id,
                field_data[blk.y0 : blk.y1, blk.x0 : blk.x1].copy(),
                blk,
            )
    return decomp


def execute_redistribution(
    store: RankStore,
    nest_id: int,
    old: Allocation,
    new: Allocation,
    nx: int,
    ny: int,
) -> TransferMatrix:
    """Move one nest's blocks from ``old`` owners to ``new`` owners.

    Implements the alltoallv data movement: every receiver's new block is
    assembled from the slices of the senders whose old blocks intersect it
    (paper Fig. 3: processor 16 receives from 0, 1, 4 and 5).  Old blocks
    are freed afterwards.  Returns the transfer matrix actually executed.
    """
    check_positive("nx", nx)
    check_positive("ny", ny)
    with get_recorder().span("dataplane.redistribute", nest=nest_id):
        transfer = _execute(store, nest_id, old, new, nx, ny)
    sanitizer = get_sanitizer()
    if sanitizer.enabled:
        sanitizer.after_execute(store, nest_id, nx, ny)
    return transfer


def _block_bounds(
    decomp: BlockDecomposition,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every block's ``(x0, x1, y0, y1)`` as row-major ``(h*w,)`` arrays."""
    xb, yb = decomp.x_bounds, decomp.y_bounds
    w, h = decomp.proc_rect.w, decomp.proc_rect.h
    return (
        np.tile(xb[:-1], h),
        np.tile(xb[1:], h),
        np.repeat(yb[:-1], w),
        np.repeat(yb[1:], w),
    )


def _execute(
    store: RankStore,
    nest_id: int,
    old: Allocation,
    new: Allocation,
    nx: int,
    ny: int,
    transfer: TransferMatrix | None = None,
) -> TransferMatrix:
    """The data movement of :func:`execute_redistribution` (pre-validated).

    ``transfer`` lets callers that already planned the move (the
    self-healing retry executor) skip recomputing the transfer matrix.
    """
    old_decomp = old.decomposition(nest_id, nx, ny)
    new_decomp = new.decomposition(nest_id, nx, ny)
    if transfer is None:
        transfer = transfer_matrix(old_decomp, new_decomp, old.grid.px)
    _move_blocks_vector(store, nest_id, old, new, old_decomp, new_decomp)
    return transfer


def _move_blocks_reference(
    store: RankStore,
    nest_id: int,
    old: Allocation,
    new: Allocation,
    old_decomp: BlockDecomposition,
    new_decomp: BlockDecomposition,
) -> None:
    """Per-block-pair data movement (the scalar oracle; tests only)."""
    # Stage 1: receivers allocate their new blocks.
    new_rect = new.rect_of(nest_id)
    incoming: dict[int, tuple[np.ndarray, Rect]] = {}
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
            src_block, src_rect = store.get(src_rank, nest_id)
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

    # Stage 3: free old blocks, install new ones.
    store.drop_nest(nest_id)
    for rank, (block, rect) in incoming.items():
        store.put(rank, nest_id, block, rect)


def _move_blocks_vector(
    store: RankStore,
    nest_id: int,
    old: Allocation,
    new: Allocation,
    old_decomp: BlockDecomposition,
    new_decomp: BlockDecomposition,
) -> None:
    """Merged-segment data movement (the shipped path).

    Both decompositions split the *same* ``nx x ny`` nest, so merging the
    old and new split boundaries per axis yields elementary segments each
    lying inside exactly one old and one new block — and, because no cut
    can fall strictly inside an old∩new intersection, each (x-segment,
    y-segment) product *is* one overlapping pair's full intersection.
    That enumerates exactly the overlapping pairs in O(active blocks +
    overlaps), with no ``n_old × n_new`` work.  Bit-for-bit the same
    store state as the scalar oracle — the same bytes land in the same
    destination blocks.
    """
    new_rect = new.rect_of(nest_id)
    old_rect = old.rect_of(nest_id)
    new_ranks = new.grid.rank_grid(new_rect).ravel()
    old_ranks = old.grid.rank_grid(old_rect).ravel()
    nx0, nx1, ny0, ny1 = _block_bounds(new_decomp)

    # Stage 1: receivers allocate their new blocks.
    incoming: dict[int, tuple[np.ndarray, Rect]] = {}
    for k in range(new_ranks.size):
        rect = Rect(
            int(nx0[k]), int(ny0[k]), int(nx1[k] - nx0[k]), int(ny1[k] - ny0[k])
        )
        incoming[int(new_ranks[k])] = (np.empty((rect.h, rect.w)), rect)

    # Stage 2: per-axis elementary segments -> (old block, new block) pairs.
    # searchsorted(..., "right") - 1 maps a segment start to the block it
    # lies in; repeated bounds (zero-width blocks) resolve to the last
    # block starting there, which is the only one with any width.
    oxb, oyb = old_decomp.x_bounds, old_decomp.y_bounds
    nxb, nyb = new_decomp.x_bounds, new_decomp.y_bounds
    xcuts = np.union1d(oxb, nxb)
    ycuts = np.union1d(oyb, nyb)
    xo = np.searchsorted(oxb, xcuts[:-1], "right") - 1
    xn = np.searchsorted(nxb, xcuts[:-1], "right") - 1
    yo = np.searchsorted(oyb, ycuts[:-1], "right") - 1
    yn = np.searchsorted(nyb, ycuts[:-1], "right") - 1
    w_old, w_new = old_rect.w, new_rect.w
    for yk in range(ycuts.size - 1):
        y0, y1 = int(ycuts[yk]), int(ycuts[yk + 1])
        o_row = int(yo[yk]) * w_old
        n_row = int(yn[yk]) * w_new
        for xk in range(xcuts.size - 1):
            src_block, src_rect = store.get(
                int(old_ranks[o_row + int(xo[xk])]), nest_id
            )
            dst_block, dst_rect = incoming[int(new_ranks[n_row + int(xn[xk])])]
            x0, x1 = int(xcuts[xk]), int(xcuts[xk + 1])
            dst_block[
                y0 - dst_rect.y0 : y1 - dst_rect.y0,
                x0 - dst_rect.x0 : x1 - dst_rect.x0,
            ] = src_block[
                y0 - src_rect.y0 : y1 - src_rect.y0,
                x0 - src_rect.x0 : x1 - src_rect.x0,
            ]

    # Stage 3: free old blocks, install new ones.
    store.drop_nest(nest_id)
    for rank, (block, rect) in incoming.items():
        store.put(rank, nest_id, block, rect)


def _gather_nest_checked(
    store: RankStore, nest_id: int, nx: int, ny: int
) -> np.ndarray:
    """The verifying gather walk: write-then-check every block region."""
    out = np.full((ny, nx), np.nan)
    covered = 0
    for rank in store.holders(nest_id):
        block, rect = store.get(rank, nest_id)
        region = out[rect.y0 : rect.y1, rect.x0 : rect.x1]
        if not np.all(np.isnan(region)):
            raise ValueError(
                f"nest {nest_id}: rank {rank}'s block {rect} overlaps another block"
            )
        out[rect.y0 : rect.y1, rect.x0 : rect.x1] = block
        covered += rect.area
    if covered != nx * ny or np.isnan(out).any():
        raise ValueError(
            f"nest {nest_id}: blocks cover {covered} of {nx * ny} points"
        )
    return out


def gather_nest(store: RankStore, nest_id: int, nx: int, ny: int) -> np.ndarray:
    """Reassemble the full nest field from its current owners.

    Raises :class:`ValueError` if the held blocks do not tile the nest
    exactly (a broken redistribution would be caught here).
    """
    with get_recorder().span("dataplane.gather", nest=nest_id):
        # Optimistically assemble in one pass — O(active blocks), no
        # pairwise overlap test — and accept when the coverage count and
        # the absence of NaN holes prove the tiling exact.  Any
        # discrepancy (overlap implies a hole, so the checks catch it)
        # re-runs the verifying walk on the untouched store, which blames
        # the offending rank in its diagnostics.
        pairs = [
            store.get(rank, nest_id) for rank in store.holders(nest_id)
        ]
        out = np.full((ny, nx), np.nan)
        covered = 0
        try:
            for block, rect in pairs:
                out[rect.y0 : rect.y1, rect.x0 : rect.x1] = block
                covered += rect.area
        except ValueError:
            return _gather_nest_checked(store, nest_id, nx, ny)
        if covered == nx * ny and not np.isnan(out).any():
            return out
        return _gather_nest_checked(store, nest_id, nx, ny)


# -- self-healing execution (repro.faults) ------------------------------


class TransientRedistributionError(RuntimeError):
    """One redistribution round failed in a retryable way.

    Raised by a round-time callback (usually a fault injector) to model a
    lost or interrupted alltoallv round; the self-healing executor treats
    it exactly like a timeout and retries with backoff.
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

    def max_total_delay(self) -> float:
        """Upper bound on summed backoff across every possible retry."""
        total = 0.0
        for retry in range(1, self.max_attempts):
            nominal = min(
                self.base_delay * self.multiplier ** (retry - 1), self.max_delay
            )
            total += nominal * (1.0 + self.jitter)
        return total


@dataclass(frozen=True)
class RetryOutcome:
    """What one self-healing redistribution actually took."""

    nest_id: int
    transfer: TransferMatrix
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
    nest_id: int,
    old: Allocation,
    new: Allocation,
    nx: int,
    ny: int,
    *,
    policy: BackoffPolicy | None = None,
    timeout: float = math.inf,
    round_time: Callable[[int], float] | None = None,
    seed: int = 0,
    ledger: CommLedger | None = None,
    bytes_per_point: int = 8,
) -> RetryOutcome:
    """Run one nest's redistribution with per-round timeout and backoff.

    ``round_time(attempt)`` returns the simulated duration of try number
    ``attempt`` (0-based); a return above ``timeout`` — or a raised
    :class:`TransientRedistributionError` — fails that try, which is
    retried after a seeded-jitter backoff delay (see :class:`BackoffPolicy`)
    until ``policy.max_attempts`` is exhausted, at which point
    :class:`RedistributionAbortedError` is raised with the store untouched.
    The data movement itself is applied exactly once, on the winning try,
    so the bit-for-bit gather invariant is preserved through any number of
    failed rounds.  When a ``ledger`` is given, re-sent bytes are
    attributed to their senders via :meth:`CommLedger.add_retry`.

    The plan is computed once, before the retry loop: every attempt —
    including the winning one, which reuses it through :func:`_execute` —
    works from the same transfer matrix and the same :class:`MessageSet`
    object, so a retry storm never re-runs the planner.
    """
    check_positive("nx", nx)
    check_positive("ny", ny)
    if timeout <= 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    policy = policy or BackoffPolicy()
    rng = make_rng((seed * 1_000_003 + nest_id) % 2**63)
    flight = get_flight_recorder()

    # The wire traffic of one try, for retry attribution and execution.
    plan_transfer = transfer_matrix(
        old.decomposition(nest_id, nx, ny),
        new.decomposition(nest_id, nx, ny),
        old.grid.px,
    )
    messages = messages_from_transfer(plan_transfer, bytes_per_point)

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
                duration = round_time(attempt) if round_time is not None else 0.0
            except TransientRedistributionError as exc:
                flight.emit(
                    "redist.round_failed",
                    nest=nest_id,
                    attempt=attempt,
                    reason=str(exc),
                )
                continue
            if duration > timeout:
                flight.emit(
                    "redist.round_timeout",
                    nest=nest_id,
                    attempt=attempt,
                    duration=round(duration, 6),
                    timeout=round(timeout, 6),
                )
                continue
            transfer = _execute(
                store, nest_id, old, new, nx, ny, transfer=plan_transfer
            )
            sanitizer = get_sanitizer()
            if sanitizer.enabled:
                sanitizer.after_execute(store, nest_id, nx, ny)
            if attempt > 0:
                flight.emit(
                    "redist.recovered",
                    nest=nest_id,
                    attempts=attempt + 1,
                    total_backoff=round(sum(delays), 6),
                )
            return RetryOutcome(
                nest_id=nest_id,
                transfer=transfer,
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
