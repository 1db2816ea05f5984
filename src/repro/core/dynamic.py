"""The dynamic strategy (paper §IV-C).

At every adaptation point both candidate allocations are computed — scratch
and diffusion — and the one with the smaller **predicted execution time +
predicted redistribution time** wins:

* predicted execution time of an allocation is the slowest nest (they run
  simultaneously on disjoint rectangles), each nest's time interpolated by
  the :class:`~repro.perfmodel.exectime.ExecTimePredictor`;
* predicted redistribution time is the §IV-C1 analytical alltoallv model
  over the retained nests' transfer matrices.

Both candidates price their moves into the point's move map, so a move
the two share is built once, and the plan reads the winner's moves from
the same map.

The choice history is recorded so the Fig. 12 experiment can report how
often each method was selected and whether the selection was correct.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import Allocation
from repro.core.diffusion import DiffusionStrategy
from repro.core.redistribution import MoveMap, nest_moves
from repro.core.scratch import ScratchStrategy
from repro.core.strategy import ReallocationStrategy
from repro.grid.procgrid import ProcessorGrid
from repro.mpisim.costmodel import CostModel
from repro.obs import get_recorder
from repro.perfmodel.exectime import ExecTimePredictor
from repro.sanitize.hooks import get_sanitizer
from repro.topology.machines import MachineSpec

__all__ = [
    "DynamicStrategy",
    "DynamicChoice",
    "CandidateCosts",
    "predict_candidate_costs",
    "predicted_costs",
    "predicted_exec_time",
]


@dataclass(frozen=True)
class DynamicChoice:
    """One adaptation point's selection record."""

    chosen: str  # "scratch" or "diffusion"
    scratch_exec: float
    scratch_redist: float
    diffusion_exec: float
    diffusion_redist: float


@dataclass(frozen=True)
class CandidateCosts:
    """Both candidate allocations with their §IV-C predicted costs."""

    choice: DynamicChoice
    scratch: Allocation
    diffusion: Allocation

    @property
    def chosen_allocation(self) -> Allocation:
        return self.scratch if self.choice.chosen == "scratch" else self.diffusion


def predicted_exec_time(
    predictor: ExecTimePredictor,
    allocation: Allocation,
    nest_sizes: dict[int, tuple[int, int]],
) -> float:
    """Slowest-nest predicted execution time for an allocation."""
    if allocation.is_empty:
        return 0.0
    missing = set(allocation.rects) - set(nest_sizes)
    if missing:
        raise ValueError(f"nest_sizes missing allocated nests {sorted(missing)}")
    return max(
        predictor.predict(*nest_sizes[nid], allocation.rects[nid].area)
        for nid in allocation.rects
    )


def predicted_costs(
    old: Allocation | None,
    candidate: Allocation,
    nest_sizes: dict[int, tuple[int, int]],
    machine: MachineSpec,
    cost: CostModel,
    predictor: ExecTimePredictor,
    moves: MoveMap | None = None,
) -> tuple[float, float]:
    """One candidate's §IV-C decision inputs: ``(exec, redist)`` predicted.

    The redistribution time is the §IV-C1 model alone over the retained
    nests' moves, summed as a plan sums its ``predicted_time`` (0.0 at the
    first adaptation point, where nothing moves).  ``moves`` is the
    point's move map (:func:`~repro.core.redistribution.nest_moves`).

    Validation: :func:`predicted_exec_time` raises ``ValueError`` for an
    allocated nest without a size.
    """
    exec_time = predicted_exec_time(predictor, candidate, nest_sizes)
    if old is None:
        return exec_time, 0.0
    priced = nest_moves(old, candidate, nest_sizes, machine, cost, moves)
    sanitizer = get_sanitizer()
    if sanitizer.enabled:
        sanitizer.after_moves(priced, nest_sizes)
    return exec_time, sum(move.predicted_time for move in priced)


def predict_candidate_costs(
    old: Allocation | None,
    weights: dict[int, float],
    grid: ProcessorGrid,
    nest_sizes: dict[int, tuple[int, int]],
    machine: MachineSpec,
    cost: CostModel,
    predictor: ExecTimePredictor,
    moves: MoveMap | None = None,
) -> CandidateCosts:
    """Compute both candidate allocations and the §IV-C decision inputs.

    This is the dynamic strategy's decision procedure.  The winner rule
    is strict inequality; ties keep diffusion (which preserves overlap
    for free).  Both candidates price into ``moves``, the point's move
    map (a fresh one when none is given), so a move they share is built
    once.
    """
    missing = set(weights) - set(nest_sizes)
    if missing:
        raise KeyError(f"nest_sizes missing for nests {sorted(missing)}")
    if moves is None:
        moves = {}
    scratch_alloc = ScratchStrategy().reallocate(old, weights, grid)
    diffusion_alloc = DiffusionStrategy().reallocate(old, weights, grid)
    s_exec, s_redist = predicted_costs(
        old, scratch_alloc, nest_sizes, machine, cost, predictor, moves
    )
    d_exec, d_redist = predicted_costs(
        old, diffusion_alloc, nest_sizes, machine, cost, predictor, moves
    )
    # Strict inequality: on a predicted tie (frequently the two trees
    # coincide exactly) keep the diffusion allocation, which preserves
    # overlap for free.
    chosen = "scratch" if s_exec + s_redist < d_exec + d_redist else "diffusion"
    return CandidateCosts(
        choice=DynamicChoice(
            chosen=chosen,
            scratch_exec=s_exec,
            scratch_redist=s_redist,
            diffusion_exec=d_exec,
            diffusion_redist=d_redist,
        ),
        scratch=scratch_alloc,
        diffusion=diffusion_alloc,
    )


class DynamicStrategy(ReallocationStrategy):
    """Select scratch or diffusion by predicted total time, per step."""

    name = "dynamic"

    def __init__(
        self,
        machine: MachineSpec,
        cost: CostModel,
        predictor: ExecTimePredictor,
    ) -> None:
        self.machine = machine
        self.cost = cost
        self.predictor = predictor
        self.history: list[DynamicChoice] = []

    def reallocate(
        self,
        old: Allocation | None,
        weights: dict[int, float],
        grid: ProcessorGrid,
        nest_sizes: dict[int, tuple[int, int]] | None = None,
        moves: MoveMap | None = None,
    ) -> Allocation:
        if nest_sizes is None:
            raise ValueError(
                "DynamicStrategy needs nest_sizes to predict redistribution"
            )
        candidates = predict_candidate_costs(
            old,
            weights,
            grid,
            nest_sizes,
            self.machine,
            self.cost,
            self.predictor,
            moves,
        )
        choice = candidates.choice
        self.history.append(choice)
        get_recorder().emit(
            "dynamic.choice",
            chosen=choice.chosen,
            scratch_exec=choice.scratch_exec,
            scratch_redist=choice.scratch_redist,
            diffusion_exec=choice.diffusion_exec,
            diffusion_redist=choice.diffusion_redist,
        )
        return candidates.chosen_allocation
