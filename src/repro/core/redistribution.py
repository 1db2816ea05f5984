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

from dataclasses import dataclass, field

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
from repro.obs import get_flight_recorder, get_recorder
from repro.perfmodel.redisttime import measure_redistribution_time
from repro.sanitize.hooks import get_sanitizer
from repro.topology.machines import MachineSpec

__all__ = ["NestMove", "RedistributionPlan", "plan_redistribution"]


@dataclass(frozen=True)
class NestMove:
    """One retained nest's data movement."""

    nest_id: int
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
    #: §IV-C1 predicted time per nest round (keys = retained nest ids) —
    #: the basis for per-round timeouts in the self-healing executor
    per_nest_predicted: dict[int, float] = field(default_factory=dict)

    @property
    def retained_nests(self) -> list[int]:
        return [m.nest_id for m in self.moves]

    def round_timeout(self, nest_id: int, factor: float = 4.0) -> float:
        """Deadline for one nest's round: ``factor ×`` its predicted time.

        A round exceeding this is treated as failed by the self-healing
        executor (:func:`repro.core.dataplane.execute_redistribution_with_retry`)
        and retried with backoff.  Falls back to the plan-wide prediction
        when the nest has no per-round entry (e.g. an old serialized plan).
        """
        if factor <= 0:
            raise ValueError(f"timeout factor must be > 0, got {factor}")
        base = self.per_nest_predicted.get(nest_id, self.predicted_time)
        return factor * base


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
    size.  Nests only in ``old`` (deleted) or only in ``new`` (created; their
    initial data is interpolated from the parent, not redistributed) move no
    data, exactly as in the paper.

    ``link_state`` (optional) is a live
    :class:`~repro.mpisim.netsim.LinkLoadState` to maintain by deltas:
    deleted nests' contributions are retired and each retained nest's is
    replaced by this plan's messages, so after the call the state holds
    exactly this adaptation point's wire traffic without any full
    recomputation.  The sanitizer (when armed) cross-checks the
    incremental state against a from-scratch rebuild.
    """
    simulator = simulator or NetworkSimulator(machine.mapping, cost)
    recorder = get_recorder()
    retained = sorted(set(old.rects) & set(new.rects))
    moves: list[NestMove] = []
    per_nest_msgs: list[MessageSet] = []
    total_points = 0
    local_points = 0
    for nid in retained:
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
        moves.append(NestMove(nest_id=nid, transfer=t, messages=msgs))
        per_nest_msgs.append(msgs)
        total_points += t.total_points
        local_points += t.local_points
        get_flight_recorder().emit(
            "redist.round",
            nest=nid,
            n_messages=len(msgs),
            network_bytes=msgs.total_bytes,
            overlap=t.overlap_fraction,
        )

    with recorder.span("redist.cost", n_moves=len(moves)):
        all_msgs = MessageSet.concat(per_nest_msgs)
        hb_total, hb_avg = hop_bytes(all_msgs, machine.mapping)
        per_nest_predicted = {
            nid: predict_alltoallv_time(m, machine, cost)
            for nid, m in zip(retained, per_nest_msgs)
        }
        predicted = sum(per_nest_predicted.values())
        measured = measure_redistribution_time(per_nest_msgs, simulator, flow_level)
    overlap = local_points / total_points if total_points else 1.0
    plan = RedistributionPlan(
        moves=moves,
        predicted_time=predicted,
        measured_time=measured,
        hop_bytes_total=hb_total,
        hop_bytes_avg=hb_avg,
        overlap_fraction=overlap,
        network_bytes=all_msgs.total_bytes,
        per_nest_predicted=per_nest_predicted,
    )
    if link_state is not None:
        with recorder.span("redist.link_state", n_moves=len(moves)):
            for nid in sorted(set(old.rects) - set(new.rects)):
                link_state.retire(nid)
            for nid, msgs in zip(retained, per_nest_msgs):
                link_state.update(nid, msgs)
    sanitizer = get_sanitizer()
    if sanitizer.enabled:
        sanitizer.after_plan(plan, nest_sizes)
        if link_state is not None:
            sanitizer.after_link_state(link_state)
    return plan
