"""Detection and degraded-mode reallocation after rank failure.

Three pieces:

* :class:`HealthView` — a deterministic heartbeat table over the simulated
  ranks.  Ranks beat once per adaptation point; a rank silent for more
  than ``grace`` consecutive points is declared dead.  (Fail-stop model:
  a declared rank never comes back.)
* :func:`plan_shrink` — the ReSHAPE-style planned shrink: every grid *row*
  containing a dead rank is vacated, because dropping whole rows is the
  only shrink that keeps the survivors a rectangular ``Px x Py'`` grid —
  the shape every tiling invariant and block decomposition assumes.  The
  returned :class:`RankRemap` records which physical ranks back the new
  logical grid.
* :func:`recover_from_rank_failure` — the degraded-mode reallocation
  itself: classify each nest (recoverable from surviving blocks, restorable
  from the last checkpoint, or lost), excise lost nests with the *same*
  diffusion edit used for disappearing nests (their leaves are marked free
  and collapse away — the paper's machinery, reused for failure), lay the
  edited tree out on the shrunk grid, verify with
  :mod:`repro.core.invariants`, and rebuild the data plane so every
  retained nest's field survives bit-for-bit.

The whole path is observable: detection, shrink, per-nest outcomes and the
final verification all emit flight events, and the returned
:class:`RecoveryResult` says which nests each recovery kept, dropped and
restored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.allocation import Allocation
from repro.core.dataplane import RankStore, scatter_nest
from repro.core.invariants import check_tiling, check_tree_consistency
from repro.faults.checkpoint import Checkpoint
from repro.grid.procgrid import ProcessorGrid
from repro.obs import get_recorder
from repro.sanitize.hooks import get_sanitizer
from repro.tree.edit import diffusion_edit

if TYPE_CHECKING:
    from repro.core.reallocator import ProcessorReallocator

__all__ = [
    "HealthView",
    "RankRemap",
    "RecoveryError",
    "RecoveryResult",
    "plan_shrink",
    "recover_from_rank_failure",
]


class RecoveryError(RuntimeError):
    """Recovery is impossible (e.g. every grid row lost a rank)."""


class HealthView:
    """Heartbeat table: which ranks are alive, as of which step.

    Deterministic by construction — there are no clocks here (reprolint
    R007): "time" is the adaptation-point counter, and liveness is purely
    a function of which ``beat`` calls were made.
    """

    def __init__(self, nranks: int, grace: int = 0) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if grace < 0:
            raise ValueError(f"grace must be >= 0, got {grace}")
        self.nranks = nranks
        #: extra silent steps tolerated before a rank is declared dead
        self.grace = grace
        #: last step each rank was heard from (-1 = never)
        self.last_beat = [-1] * nranks
        self._dead: set[int] = set()

    def beat(self, rank: int, step: int) -> None:
        """Record a heartbeat from ``rank`` at adaptation point ``step``."""
        self._check_rank(rank)
        if rank in self._dead:
            raise ValueError(f"rank {rank} is declared dead and cannot beat")
        self.last_beat[rank] = max(self.last_beat[rank], step)

    def beat_all(self, step: int, except_ranks: frozenset[int] = frozenset()) -> None:
        """Heartbeat every live rank except ``except_ranks`` (the silent ones)."""
        for rank in range(self.nranks):
            if rank not in except_ranks and rank not in self._dead:
                self.beat(rank, step)

    def suspects(self, step: int) -> list[int]:
        """Ranks silent for more than ``grace`` steps as of ``step`` (sorted).

        Already-declared ranks are not re-reported.
        """
        return [
            rank
            for rank in range(self.nranks)
            if rank not in self._dead
            and step - self.last_beat[rank] > self.grace
        ]

    def declare_dead(self, rank: int) -> None:
        """Latch ``rank`` as failed (fail-stop: permanent)."""
        self._check_rank(rank)
        self._dead.add(rank)

    def detect(self, step: int) -> list[int]:
        """Declare and return every newly-dead rank as of ``step``."""
        found = self.suspects(step)
        flight = get_recorder()
        for rank in found:
            self.declare_dead(rank)
            flight.emit("fault.detected", step=step, rank=rank)
        return found

    @property
    def dead_ranks(self) -> frozenset[int]:
        return frozenset(self._dead)

    def alive(self, rank: int) -> bool:
        self._check_rank(rank)
        return rank not in self._dead

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")


@dataclass(frozen=True)
class RankRemap:
    """Which physical ranks back the shrunk logical grid.

    The shrink drops whole grid rows, so the map is row-structured:
    logical row ``j`` of the new grid is physical row ``rows[j]`` of the
    old one, columns unchanged.
    """

    old_grid: ProcessorGrid
    new_grid: ProcessorGrid
    rows: tuple[int, ...]  # surviving old-row index per new row

    def __post_init__(self) -> None:
        if len(self.rows) != self.new_grid.py:
            raise ValueError(
                f"{len(self.rows)} surviving rows for a grid of "
                f"{self.new_grid.py} rows"
            )
        if self.new_grid.px != self.old_grid.px:
            raise ValueError("a row shrink cannot change the grid width")


def plan_shrink(
    grid: ProcessorGrid, dead_ranks: frozenset[int]
) -> tuple[ProcessorGrid, RankRemap]:
    """Shrink ``grid`` past ``dead_ranks`` by vacating their rows.

    Raises :class:`RecoveryError` when no full row survives.
    """
    for rank in dead_ranks:
        if not 0 <= rank < grid.nprocs:
            raise ValueError(f"dead rank {rank} outside grid {grid}")
    dead_rows = {rank // grid.px for rank in dead_ranks}
    surviving = tuple(y for y in range(grid.py) if y not in dead_rows)
    if not surviving:
        raise RecoveryError(
            f"every row of grid {grid} contains a dead rank; cannot shrink"
        )
    new_grid = ProcessorGrid(grid.px, len(surviving))
    return new_grid, RankRemap(old_grid=grid, new_grid=new_grid, rows=surviving)


@dataclass(frozen=True)
class RecoveryResult:
    """Everything :func:`recover_from_rank_failure` decided and rebuilt."""

    dead_ranks: frozenset[int]
    old_grid: ProcessorGrid
    new_grid: ProcessorGrid
    remap: RankRemap
    allocation: Allocation
    retained_nests: tuple[int, ...]
    dropped_nests: tuple[int, ...]  # unrecoverable, excised from the tree
    restored_from_checkpoint: tuple[int, ...]
    store: RankStore | None  # rebuilt data plane (None when none was given)
    invariants_ok: bool


def _retained_weights(allocation: Allocation, retained: list[int]) -> dict[int, float]:
    """Weights for the surviving nests, from the allocation or its tree."""
    weights = {
        nid: allocation.weights[nid]
        for nid in retained
        if allocation.weights.get(nid, 0.0) > 0.0
    }
    missing = [nid for nid in retained if nid not in weights]
    if missing and allocation.tree is not None:
        for leaf in allocation.tree.nest_leaves():
            if leaf.nest_id in missing and leaf.weight > 0.0:
                weights[leaf.nest_id] = leaf.weight
    still_missing = [nid for nid in retained if nid not in weights]
    if still_missing:
        # no recorded weight anywhere: fall back to equal shares
        for nid in still_missing:
            weights[nid] = 1.0
    return weights


def _reconstruct_field(
    store: RankStore,
    nest_id: int,
    nx: int,
    ny: int,
    old_alloc: Allocation,
    dead_ranks: frozenset[int],
    checkpoint: Checkpoint | None,
) -> np.ndarray:
    """One nest's full field from surviving blocks + checkpointed regions."""
    out = np.full((ny, nx), np.nan)
    rect = old_alloc.rect_of(nest_id)
    decomp = old_alloc.decomposition(nest_id, nx, ny)
    for j in range(rect.h):
        for i in range(rect.w):
            rank = old_alloc.grid.rank(rect.x0 + i, rect.y0 + j)
            blk = decomp.block_of(i, j)
            if rank in dead_ranks:
                if checkpoint is None or not checkpoint.has_nest(nest_id):
                    raise RecoveryError(
                        f"nest {nest_id}: rank {rank}'s block lost with no "
                        f"checkpoint (should have been classified dropped)"
                    )
                out[blk.y0 : blk.y1, blk.x0 : blk.x1] = checkpoint.fields[
                    nest_id
                ][blk.y0 : blk.y1, blk.x0 : blk.x1]
            else:
                block, _ = store.get(rank, nest_id)
                out[blk.y0 : blk.y1, blk.x0 : blk.x1] = block
    if np.isnan(out).any():
        raise RecoveryError(f"nest {nest_id}: reconstruction left holes")
    return out


def recover_from_rank_failure(
    reallocator: "ProcessorReallocator",
    dead_ranks: frozenset[int],
    store: RankStore | None = None,
    checkpoint: Checkpoint | None = None,
) -> RecoveryResult:
    """Shrink, re-edit, verify, and rebuild after losing ``dead_ranks``.

    Mutates ``reallocator`` in place (grid, allocation, nest sizes) so its
    next :meth:`~repro.core.reallocator.ProcessorReallocator.step` runs on
    the survivors.  See the module docstring for the full flow.
    """
    if not dead_ranks:
        raise ValueError("recover_from_rank_failure needs at least one dead rank")
    old_alloc = reallocator.allocation
    if old_alloc is None:
        raise RecoveryError("no allocation exists yet; nothing to recover")
    old_grid = reallocator.grid
    flight = get_recorder()
    flight.emit(
        "recovery.start",
        step=reallocator.step_count,
        dead_ranks=",".join(map(str, sorted(dead_ranks))),
    )

    new_grid, remap = plan_shrink(old_grid, dead_ranks)
    flight.emit(
        "recovery.shrink",
        step=reallocator.step_count,
        old_grid=str(old_grid),
        new_grid=str(new_grid),
    )

    # Classify every nest: data intact, restorable from checkpoint, or lost.
    retained: list[int] = []
    dropped: list[int] = []
    restored: list[int] = []
    for nid in old_alloc.nest_ids:
        rect = old_alloc.rect_of(nid)
        lost = bool(set(int(r) for r in old_grid.ranks_in(rect)) & dead_ranks)
        if not lost:
            retained.append(nid)
        elif checkpoint is not None and checkpoint.has_nest(nid):
            retained.append(nid)
            restored.append(nid)
        elif store is None:
            # planning-only recovery: no data plane to lose, keep the nest
            retained.append(nid)
        else:
            dropped.append(nid)
            flight.emit(
                "recovery.drop_nest", step=reallocator.step_count, nest=nid
            )

    # Excise lost nests with the standard diffusion edit (their slots go
    # free and collapse), then lay the surviving tree on the shrunk grid.
    weights = _retained_weights(old_alloc, retained)
    if old_alloc.tree is not None:
        new_tree = diffusion_edit(
            old_alloc.tree,
            deleted=dropped,
            retained_weights=weights,
            new_weights={},
        )
    else:
        new_tree = None
    new_alloc = Allocation.from_tree(new_tree, new_grid, weights=weights)

    invariants_ok = True
    try:
        check_tiling(new_alloc)
        check_tree_consistency(new_alloc)
    except AssertionError:
        invariants_ok = False
        raise
    finally:
        flight.emit(
            "recovery.verified",
            step=reallocator.step_count,
            ok=int(invariants_ok),
            retained=len(retained),
            dropped=len(dropped),
        )

    # Rebuild the data plane: every retained nest's field reassembled from
    # surviving blocks (checkpointed regions standing in for dead ranks'),
    # then scattered onto the shrunk allocation.
    new_store: RankStore | None = None
    if store is not None:
        new_store = RankStore(new_grid.nprocs)
        for nid in retained:
            nx, ny = reallocator.nest_sizes[nid]
            fld = _reconstruct_field(
                store, nid, nx, ny, old_alloc, dead_ranks, checkpoint
            )
            scatter_nest(new_store, nid, fld, new_alloc)
            flight.emit(
                "recovery.nest_rebuilt",
                step=reallocator.step_count,
                nest=nid,
                from_checkpoint=int(nid in restored),
            )
        sanitizer = get_sanitizer()
        if sanitizer.enabled:
            sanitizer.after_recovery(
                new_store, dict(reallocator.nest_sizes), list(retained)
            )

    reallocator.grid = new_grid
    reallocator.allocation = new_alloc
    reallocator.nest_sizes = {
        nid: size
        for nid, size in reallocator.nest_sizes.items()
        if nid in set(retained)
    }
    flight.emit(
        "recovery.done",
        step=reallocator.step_count,
        new_grid=str(new_grid),
        retained=len(retained),
        dropped=len(dropped),
    )
    return RecoveryResult(
        dead_ranks=frozenset(dead_ranks),
        old_grid=old_grid,
        new_grid=new_grid,
        remap=remap,
        allocation=new_alloc,
        retained_nests=tuple(retained),
        dropped_nests=tuple(dropped),
        restored_from_checkpoint=tuple(restored),
        store=new_store,
        invariants_ok=invariants_ok,
    )
