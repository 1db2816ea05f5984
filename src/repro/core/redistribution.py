"""Redistribution planning for one adaptation point.

For every retained nest, the old and new block decompositions yield a
transfer matrix (who sends which nest points to whom); from it come the
quantities the paper reports:

* the **messages** of the per-nest ``MPI_Alltoallv`` (local copies excluded),
* the **overlap fraction** — points keeping their owner (Fig. 11),
* **hop-bytes** — byte-weighted hops under the machine's mapping (Fig. 10),
* **predicted** redistribution time (§IV-C1 analytical model) and
  **measured** time (contention-aware network simulation).

A :class:`NestMove` carries its messages' hop counts, their hop-bytes
and its §IV-C1 time, computed once where it is built; every other reader
of the move's wire takes them from it.  Within one adaptation point the
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

    ``hops`` are its messages' hop counts under the machine's mapping
    (empty for a move that sends nothing), ``hop_bytes`` their byte-weighted
    sum and ``predicted_time`` its §IV-C1 alltoallv time: one hop count per
    message, taken when :func:`nest_moves` builds the move.
    """

    nest_id: int
    nx: int
    ny: int
    transfer: TransferMatrix
    messages: MessageSet
    hops: np.ndarray
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
                hops = machine.mapping.rank_hops(msgs.src, msgs.dst)
                move = made[key] = NestMove(
                    nid,
                    nx,
                    ny,
                    t,
                    msgs,
                    hops,
                    float(np.dot(hops, msgs.nbytes)),
                    predict_alltoallv_time(msgs, machine, cost, hops),
                )
        out.append(move)
    return out


def plan_redistribution(
    old: Allocation,
    new: Allocation,
    nest_sizes: dict[int, tuple[int, int]],
    machine: MachineSpec,
    cost: CostModel,
    link_state: LinkLoadState | None = None,
    moves: MoveMap | None = None,
) -> RedistributionPlan:
    """Plan and cost the redistribution from ``old`` to ``new``.

    ``nest_sizes`` maps every retained nest id to its ``(nx, ny)`` fine-grid
    size, which each move records: the data plane moves the nest at it.
    Nests only in ``old`` (deleted) or only in ``new`` (created; their
    initial data is interpolated from the parent, not redistributed) move
    no data, exactly as in the paper.

    The wire is charged in ``link_state``, a
    :class:`~repro.mpisim.netsim.LinkLoadState` (a fresh one on the
    machine when omitted): deleted nests are retired from it and each
    move's messages are charged into it, replacing the nest's earlier
    charge, so after the call it holds exactly this point's wire traffic.
    Each move is then timed once with the state's simulator
    (:meth:`~repro.mpisim.netsim.NetworkSimulator.bottleneck_time`,
    whose wire phase reads only the busiest link's load).  The sanitizer
    (when armed) checks that the state holds exactly this plan's moves,
    that each move's per-link map carries its hop-bytes, and that the
    busiest load is that map's maximum.

    ``moves`` (optional) is the point's move map: the plan takes each move
    the candidates' pricing already built from it instead of building it
    again, then empties it, so the moves of a candidate that lost are
    freed before the wire is priced.

    Validation: :func:`nest_moves` raises ``KeyError`` for a retained nest without a size.
    """
    if link_state is None:
        link_state = LinkLoadState(NetworkSimulator(machine.mapping, cost))
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
    with recorder.span("redist.link_state", n_moves=len(priced)):
        for nid in sorted(set(old.rects) - set(new.rects)):
            link_state.retire(nid)
        for move in priced:
            link_state.update(move.nest_id, move.messages)
    with recorder.span("redist.cost", n_moves=len(priced)):
        all_msgs = MessageSet.concat([move.messages for move in priced])
        # byte counts are integer-valued, so the per-move sums add up exactly
        hb_total = sum((move.hop_bytes for move in priced), 0.0)
        hb_avg = hb_total / all_msgs.total_bytes if len(all_msgs) else 0.0
        predicted = sum(move.predicted_time for move in priced)
        # §IV-C1: each retained nest redistributes with its own
        # MPI_Alltoallv, so the measured time sums the nests' bottlenecks
        simulator = link_state.simulator
        measured = sum(simulator.bottleneck_time(move.messages) for move in priced)
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
        sanitizer.after_link_state(link_state, plan)
    return plan
