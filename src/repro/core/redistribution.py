"""Redistribution planning for one adaptation point.

For every retained nest, the old and new block decompositions yield a
transfer matrix (who sends which nest points to whom); from it come the
quantities the paper reports:

* the **messages** of the per-nest ``MPI_Alltoallv`` (local copies excluded),
* the **overlap fraction** — points keeping their owner (Fig. 11),
* **hop-bytes** — byte-weighted hops under the machine's mapping (Fig. 10),
* **predicted** redistribution time (§IV-C1 analytical model) and
  **measured** time (contention-aware network simulation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import Allocation
from repro.grid.overlap import TransferMatrix, transfer_matrix
from repro.mpisim.alltoallv import (
    MessageSet,
    hop_bytes,
    messages_from_transfer,
    predict_alltoallv_time,
)
from repro.mpisim.costmodel import CostModel
from repro.mpisim.netsim import LinkLoadState, NetworkSimulator
from repro.obs import get_recorder
from repro.perfmodel.redisttime import measure_redistribution_time
from repro.sanitize.hooks import get_sanitizer
from repro.topology.machines import MachineSpec

__all__ = ["NestMove", "RedistributionPlan", "nest_moves", "plan_redistribution"]


@dataclass(frozen=True)
class NestMove:
    """One retained nest's data movement, at the ``nx x ny`` size it was
    priced at: the data plane executes exactly this move."""

    nest_id: int
    nx: int
    ny: int
    transfer: TransferMatrix
    messages: MessageSet

    @property
    def overlap_fraction(self) -> float:
        return self.transfer.overlap_fraction


@dataclass(frozen=True)
class RedistributionPlan:
    """All data movement of one adaptation point, with its metrics."""

    moves: list[NestMove]
    predicted_time: float  # §IV-C1 model, summed over nests
    measured_time: float  # network-simulated, summed over nests
    hop_bytes_total: float
    hop_bytes_avg: float  # byte-weighted average hops (Fig. 10 units)
    overlap_fraction: float  # point-weighted across retained nests
    network_bytes: float

    @property
    def retained_nests(self) -> list[int]:
        return [m.nest_id for m in self.moves]


def nest_moves(
    old: Allocation,
    new: Allocation,
    nest_sizes: dict[int, tuple[int, int]],
    cost: CostModel,
) -> list[NestMove]:
    """Every retained nest's transfer matrix and messages at its size in
    ``nest_sizes``, by nest id: the per-nest loop of a full plan and of a
    candidate's costing (:func:`repro.core.dynamic.predicted_costs`)."""
    recorder = get_recorder()
    moves: list[NestMove] = []
    for nid in sorted(set(old.rects) & set(new.rects)):
        if nid not in nest_sizes:
            raise KeyError(f"no size recorded for retained nest {nid}")
        nx, ny = nest_sizes[nid]
        with recorder.span("redist.transfer_matrix", nest=nid):
            t = transfer_matrix(
                old.decomposition(nid, nx, ny),
                new.decomposition(nid, nx, ny),
                old.grid.px,
            )
            msgs = messages_from_transfer(t, cost.bytes_per_point)
        moves.append(NestMove(nest_id=nid, nx=nx, ny=ny, transfer=t, messages=msgs))
    return moves


def plan_redistribution(
    old: Allocation,
    new: Allocation,
    nest_sizes: dict[int, tuple[int, int]],
    machine: MachineSpec,
    cost: CostModel,
    simulator: NetworkSimulator | None = None,
    flow_level: bool = False,
    link_state: LinkLoadState | None = None,
) -> RedistributionPlan:
    """Plan and cost the redistribution from ``old`` to ``new``.

    ``nest_sizes`` maps every retained nest id to its ``(nx, ny)`` fine-grid
    size, which each move records: the data plane moves the nest at it.
    Nests only in ``old`` (deleted) or only in ``new`` (created; their
    initial data is interpolated from the parent, not redistributed) move
    no data, exactly as in the paper.

    ``link_state`` (optional) is a live
    :class:`~repro.mpisim.netsim.LinkLoadState` to maintain by deltas:
    deleted nests' contributions are retired and each retained nest's is
    replaced by this plan's messages, so after the call the state holds
    exactly this adaptation point's wire traffic without any full
    recomputation.  When the state routes through ``simulator`` and the
    bottleneck bound measures the plan, each nest's charge also times its
    wire phase, so every nest is routed once.  The sanitizer (when armed)
    cross-checks the incremental state against a from-scratch rebuild.

    Validation: :func:`nest_moves` raises ``KeyError`` for a retained nest without a size.
    """
    simulator = simulator or NetworkSimulator(machine.mapping, cost)
    recorder = get_recorder()
    moves = nest_moves(old, new, nest_sizes, cost)
    for move in moves:
        recorder.emit(
            "redist.round",
            nest=move.nest_id,
            n_messages=len(move.messages),
            network_bytes=move.messages.total_bytes,
            overlap=move.overlap_fraction,
        )
    per_nest_msgs = [move.messages for move in moves]
    charges = None  # each nest's link-state charge doubles as its wire load
    if link_state is not None:
        with recorder.span("redist.link_state", n_moves=len(moves)):
            for nid in sorted(set(old.rects) - set(new.rects)):
                link_state.retire(nid)
            charges = [link_state.update(m.nest_id, m.messages) for m in moves]
        if link_state.simulator is not simulator:  # loads of another network
            charges = None
    with recorder.span("redist.cost", n_moves=len(moves)):
        all_msgs = MessageSet.concat(per_nest_msgs)
        hb_total, hb_avg = hop_bytes(all_msgs, machine.mapping)
        predicted = sum(
            predict_alltoallv_time(move.messages, machine, cost) for move in moves
        )
        measured = measure_redistribution_time(
            per_nest_msgs, simulator, flow_level, link_arrays=charges
        )
    total_points = sum(move.transfer.total_points for move in moves)
    local_points = sum(move.transfer.local_points for move in moves)
    overlap = local_points / total_points if total_points else 1.0
    plan = RedistributionPlan(
        moves=moves,
        predicted_time=predicted,
        measured_time=measured,
        hop_bytes_total=hb_total,
        hop_bytes_avg=hb_avg,
        overlap_fraction=overlap,
        network_bytes=all_msgs.total_bytes,
    )
    sanitizer = get_sanitizer()
    if sanitizer.enabled:
        sanitizer.after_plan(plan, nest_sizes)
        if link_state is not None:
            sanitizer.after_link_state(link_state)
    return plan
