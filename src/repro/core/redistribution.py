"""Redistribution planning for one adaptation point.

For every retained nest, the old and new block decompositions yield a
transfer matrix (who sends which nest points to whom); from it come the
quantities the paper reports:

* the **messages** of the per-nest ``MPI_Alltoallv`` (local copies excluded),
* the **overlap fraction** — points keeping their owner (Fig. 11),
* **hop-bytes** — byte-weighted hops under the machine's mapping (Fig. 10),
* **predicted** redistribution time (§IV-C1 analytical model) and
  **measured** time (contention-aware network simulation).

A :class:`NestMove` carries its hop-bytes and its §IV-C1 time, computed
once where it is built.  Within one adaptation point the
dynamic strategy's two candidates and the plan share one
:data:`MoveMap`, so a move that several of them price is built once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocation import Allocation
from repro.grid.overlap import TransferMatrix, transfer_matrix
from repro.grid.rect import Rect
from repro.mpisim.alltoallv import (
    MessageSet,
    messages_from_transfer,
    predict_alltoallv_time,
)
from repro.mpisim.costmodel import CostModel
from repro.mpisim.netsim import LinkLoadState, NetworkSimulator
from repro.obs import get_recorder
from repro.sanitize.hooks import get_sanitizer
from repro.topology.machines import MachineSpec

__all__ = [
    "MoveMap",
    "NestMove",
    "RedistributionPlan",
    "nest_moves",
    "plan_redistribution",
]


@dataclass(frozen=True)
class NestMove:
    """One retained nest's data movement, at the ``nx x ny`` size it was
    priced at: the data plane executes exactly this move.

    ``hop_bytes`` is its messages' hop-bytes under the machine's mapping
    and ``predicted_time`` its §IV-C1 alltoallv time; both come from one
    hop count per message, taken when :func:`nest_moves` builds the move.
    """

    nest_id: int
    nx: int
    ny: int
    transfer: TransferMatrix
    messages: MessageSet
    hop_bytes: float
    predicted_time: float

    @property
    def overlap_fraction(self) -> float:
        return self.transfer.overlap_fraction


#: one adaptation point's priced moves, keyed by ``(nest id, old rect,
#: new rect, nx, ny)``; a map never serves more than one point
MoveMap = dict[tuple[int, Rect, Rect, int, int], NestMove]


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


def _alltoallv_costs(
    messages: MessageSet, machine: MachineSpec, cost: CostModel
) -> tuple[float, float]:
    """One move's hop-bytes and §IV-C1 time, from one hop count per
    message (none for a move that sends nothing)."""
    if len(messages) == 0:
        return 0.0, 0.0
    hops = machine.mapping.rank_hops(messages.src, messages.dst)
    return (
        float(np.dot(hops, messages.nbytes)),
        predict_alltoallv_time(messages, machine, cost, hops),
    )


def nest_moves(
    old: Allocation,
    new: Allocation,
    nest_sizes: dict[int, tuple[int, int]],
    machine: MachineSpec,
    cost: CostModel,
    moves: MoveMap | None = None,
) -> list[NestMove]:
    """Every retained nest's move at its size in ``nest_sizes``, by nest
    id: the per-nest loop of a full plan and of a candidate's costing
    (:func:`repro.core.dynamic.predicted_costs`).

    ``moves`` is the point's move map: a move it already holds is
    returned as is, and a move built here is added to it.
    """
    recorder = get_recorder()
    made: MoveMap = {} if moves is None else moves
    out: list[NestMove] = []
    for nid in sorted(set(old.rects) & set(new.rects)):
        if nid not in nest_sizes:
            raise KeyError(f"no size recorded for retained nest {nid}")
        nx, ny = nest_sizes[nid]
        key = (nid, old.rects[nid], new.rects[nid], nx, ny)
        move = made.get(key)
        if move is None:
            with recorder.span("redist.transfer_matrix", nest=nid):
                t = transfer_matrix(
                    old.decomposition(nid, nx, ny),
                    new.decomposition(nid, nx, ny),
                    old.grid.px,
                )
                msgs = messages_from_transfer(t, cost.bytes_per_point)
                hop_total, predicted = _alltoallv_costs(msgs, machine, cost)
                move = made[key] = NestMove(nid, nx, ny, t, msgs, hop_total, predicted)
        out.append(move)
    return out


def plan_redistribution(
    old: Allocation,
    new: Allocation,
    nest_sizes: dict[int, tuple[int, int]],
    machine: MachineSpec,
    cost: CostModel,
    simulator: NetworkSimulator | None = None,
    link_state: LinkLoadState | None = None,
    moves: MoveMap | None = None,
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
    recomputation.  When the state routes through ``simulator``, each
    nest's charge also times its wire phase, so every nest is routed once.
    The sanitizer (when armed) cross-checks the incremental state against
    a from-scratch rebuild.

    ``moves`` (optional) is the point's move map: the plan takes each move
    the candidates' pricing already built from it instead of building it
    again, then empties it, so the moves of a candidate that lost are
    freed before the wire is priced.

    Validation: :func:`nest_moves` raises ``KeyError`` for a retained nest without a size.
    """
    simulator = simulator or NetworkSimulator(machine.mapping, cost)
    recorder = get_recorder()
    priced = nest_moves(old, new, nest_sizes, machine, cost, moves)
    if moves is not None:
        moves.clear()
    for move in priced:
        recorder.emit(
            "redist.round",
            nest=move.nest_id,
            n_messages=len(move.messages),
            network_bytes=move.messages.total_bytes,
            overlap=move.overlap_fraction,
        )
    per_nest_msgs = [move.messages for move in priced]
    charges = None  # each nest's link-state charge doubles as its wire load
    if link_state is not None:
        with recorder.span("redist.link_state", n_moves=len(priced)):
            for nid in sorted(set(old.rects) - set(new.rects)):
                link_state.retire(nid)
            charges = [link_state.update(m.nest_id, m.messages) for m in priced]
        if link_state.simulator is not simulator:  # loads of another network
            charges = None
    with recorder.span("redist.cost", n_moves=len(priced)):
        all_msgs = MessageSet.concat(per_nest_msgs)
        # byte counts are integer-valued, so the per-move sums add up exactly
        hb_total = sum((move.hop_bytes for move in priced), 0.0)
        hb_avg = hb_total / all_msgs.total_bytes if len(all_msgs) else 0.0
        predicted = sum(move.predicted_time for move in priced)
        # §IV-C1: each retained nest redistributes with its own
        # MPI_Alltoallv, so the measured time sums the nests' bottlenecks
        measured = sum(
            simulator.bottleneck_time(msgs, link_arrays=charge)
            for msgs, charge in zip(per_nest_msgs, charges or [None] * len(priced))
        )
    total_points = sum(move.transfer.total_points for move in priced)
    local_points = sum(move.transfer.local_points for move in priced)
    overlap = local_points / total_points if total_points else 1.0
    plan = RedistributionPlan(
        moves=priced,
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
