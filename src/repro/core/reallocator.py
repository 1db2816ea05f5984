"""End-to-end driver: one object per (machine, strategy) pair.

:class:`ProcessorReallocator` is the public entry point a simulation embeds:
feed it the current nest set at every adaptation point (``{nest_id:
(nx, ny)}``), and it computes the nest weights from the execution-time
predictor, invokes the strategy, plans the redistribution from the previous
allocation, and returns both.  The framework role of the paper's
contribution 2 ("dynamic nest formation and processor rescheduling within a
running simulation") — minus WRF itself, which :mod:`repro.wrf` simulates.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.allocation import Allocation
from repro.core.redistribution import MoveMap, RedistributionPlan, plan_redistribution
from repro.core.strategy import ReallocationStrategy
from repro.mpisim.costmodel import CostModel
from repro.mpisim.netsim import LinkLoadState, NetworkSimulator
from repro.obs import get_recorder
from repro.perfmodel.exectime import ExecTimePredictor
from repro.topology.machines import MachineSpec
from repro.util.logging import get_logger

if TYPE_CHECKING:
    from repro.core.dataplane import RankStore
    from repro.faults.checkpoint import Checkpoint
    from repro.faults.recovery import RecoveryResult

__all__ = ["ProcessorReallocator", "StepResult"]

logger = get_logger("core.reallocator")


@dataclass(frozen=True)
class StepResult:
    """Outcome of one adaptation point."""

    allocation: Allocation
    plan: RedistributionPlan | None  # None at the first adaptation point
    weights: dict[int, float]
    deleted: list[int]
    retained: list[int]
    created: list[int]


class ProcessorReallocator:
    """Drives processor reallocation across adaptation points."""

    def __init__(
        self,
        machine: MachineSpec,
        strategy: ReallocationStrategy,
        predictor: ExecTimePredictor,
        cost: CostModel | None = None,
    ) -> None:
        from repro.grid.procgrid import ProcessorGrid

        self.machine = machine
        self.strategy = strategy
        self.predictor = predictor
        self.cost = cost or CostModel.for_machine(machine)
        self.grid = ProcessorGrid(*machine.grid)
        self.simulator = NetworkSimulator(machine.mapping, self.cost)
        #: the wire of the nests in flight: each plan retires the deleted
        #: nests and charges every move here, pricing each nest once
        self.link_state = LinkLoadState(self.simulator)
        self.allocation: Allocation | None = None
        self.nest_sizes: dict[int, tuple[int, int]] = {}
        self.step_count = 0

    def step(self, nests: dict[int, tuple[int, int]]) -> StepResult:
        """Process one adaptation point.

        ``nests`` holds every nest that must run next, keyed by persistent
        nest id with its fine-grid ``(nx, ny)`` size.  Returns the new
        allocation plus the redistribution plan from the previous one.
        """
        for nid, (nx, ny) in nests.items():
            if nx < 1 or ny < 1:
                raise ValueError(f"nest {nid} has invalid size {nx}x{ny}")
        recorder = get_recorder()
        recorder.gauge("realloc.n_nests", len(nests))
        with recorder.span(
            "adapt",
            step=self.step_count,
            strategy=self.strategy.name,
            n_nests=len(nests),
            px=self.grid.px,
            py=self.grid.py,
        ) as span:
            old = self.allocation
            old_ids = set(old.rects) if old is not None else set()
            with recorder.span("realloc.weights"):
                weights = self.predictor.weights(nests, self.grid.nprocs)
            # This point's move map: a strategy that prices moves fills it,
            # and the plan takes the winner's moves from it.
            moves: MoveMap = {}
            with recorder.span("realloc.strategy", strategy=self.strategy.name):
                new_alloc = self.strategy.reallocate(
                    old, weights, self.grid, nest_sizes=dict(nests), moves=moves
                )
            plan: RedistributionPlan | None = None
            if old is not None:
                # Every retained nest moves at its size at this point: a
                # data plane regrids a resized nest on the ranks that hold
                # it, then executes the plan's move.
                with recorder.span("realloc.plan"):
                    plan = plan_redistribution(
                        old,
                        new_alloc,
                        nests,
                        self.machine,
                        self.cost,
                        link_state=self.link_state,
                        moves=moves,
                    )
            for nid in sorted(new_alloc.rects):
                rect = new_alloc.rects[nid]
                recorder.emit(
                    "alloc.rect",
                    step=self.step_count,
                    nest=nid,
                    x=rect.x0,
                    y=rect.y0,
                    w=rect.w,
                    h=rect.h,
                )
            for nid in sorted(set(nests) - old_ids):
                nx, ny = nests[nid]
                recorder.emit(
                    "nest.insert", step=self.step_count, nest=nid, nx=nx, ny=ny
                )
            for nid in sorted(old_ids & set(nests)):
                nx, ny = nests[nid]
                recorder.emit(
                    "nest.retain", step=self.step_count, nest=nid, nx=nx, ny=ny
                )
            for nid in sorted(old_ids - set(nests)):
                recorder.emit("nest.delete", step=self.step_count, nest=nid)
            span.tag(
                redist_predicted=plan.predicted_time if plan else 0.0,
                redist_measured=plan.measured_time if plan else 0.0,
            )
        self.allocation = new_alloc
        self.nest_sizes = dict(nests)
        self.step_count += 1
        if logger.isEnabledFor(10):  # DEBUG
            logger.debug(
                "step %d: %d nests (+%d ~%d -%d), strategy=%s, redist=%.4fs",
                self.step_count,
                len(nests),
                len(set(nests) - old_ids),
                len(old_ids & set(nests)),
                len(old_ids - set(nests)),
                self.strategy.name,
                plan.measured_time if plan else 0.0,
            )
        return StepResult(
            allocation=new_alloc,
            plan=plan,
            weights=weights,
            deleted=sorted(old_ids - set(nests)),
            retained=sorted(old_ids & set(nests)),
            created=sorted(set(nests) - old_ids),
        )

    def handle_rank_failure(
        self,
        dead_ranks: Iterable[int],
        store: RankStore | None = None,
        checkpoint: Checkpoint | None = None,
    ) -> RecoveryResult:
        """Degraded-mode reallocation after losing ``dead_ranks``.

        Delegates to :func:`repro.faults.recovery.recover_from_rank_failure`:
        the processor grid shrinks to the surviving rows, the dead ranks'
        tree slots are excised with the same diffusion edit used for
        deleted nests, the result is invariant-checked, and — when a
        ``store`` is given — retained nest data is reconstructed from
        surviving blocks (plus ``checkpoint`` for the lost ones) onto the
        shrunk allocation.  This reallocator's grid, allocation and nest
        sizes are updated in place; subsequent :meth:`step` calls run on
        the shrunk machine.
        """
        from repro.faults.recovery import recover_from_rank_failure

        dead = frozenset(dead_ranks)
        for rank in sorted(dead):
            if not 0 <= rank < self.grid.nprocs:
                raise ValueError(
                    f"dead rank {rank} outside current grid [0, {self.grid.nprocs})"
                )
        # The pre-failure wire picture is void — the grid shrinks and every
        # surviving nest re-lands; the next plan repopulates the state from
        # its own message sets, restoring the retained-nests invariant.
        self.link_state.clear()
        return recover_from_rank_failure(
            self, dead, store=store, checkpoint=checkpoint
        )
