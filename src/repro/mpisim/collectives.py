"""Collective algorithms: round schedules for the alltoallv exchange.

The paper assumes "direct algorithm for MPI_Alltoallv [11]" (Kumar,
Sabharwal, Garg & Heidelberger's BG/L alltoall optimisation work).  Real
implementations do not fire every message at once — they walk a *schedule*
of communication rounds chosen so each rank talks to one partner per round:

* **direct** — in round ``r`` every rank sends to ``(rank + r) mod P``
  (linear shift), the algorithm the paper's model assumes;
* **pairwise** — in round ``r`` rank ``i`` exchanges with ``i XOR r``
  (recursive-doubling order, power-of-two communicators only);
* **concurrent** — everything at once, the optimistic upper bound on
  overlap that :meth:`NetworkSimulator.bottleneck_time` models.

For the *sparse* alltoallv of a nest redistribution most rounds carry no
messages and are skipped.  :func:`scheduled_time` costs a schedule as the
sum of per-round network times (rounds are separated by synchronisation) —
a more conservative model than the concurrent bound.  The choice decides
the paper's scratch-vs-diffusion ordering: in the collective-model ablation
(``benchmarks/results/ablation_collective.txt``) diffusion redistributes
10.9 % faster than scratch under the concurrent model, but 5.3 % slower
under direct rounds and 4.5 % slower under pairwise rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpisim.alltoallv import MessageSet
from repro.mpisim.netsim import NetworkSimulator

__all__ = [
    "CollectiveSchedule",
    "schedule_concurrent",
    "schedule_direct",
    "schedule_pairwise",
    "scheduled_time",
]


@dataclass(frozen=True)
class CollectiveSchedule:
    """An ordered sequence of communication rounds."""

    algorithm: str
    rounds: list[MessageSet]

    @property
    def total_bytes(self) -> float:
        return float(sum(r.total_bytes for r in self.rounds))

    def validate_against(self, messages: MessageSet) -> None:  # reprolint: disable=R016 -- the spec the schedule tests hold every schedule to
        """Check the rounds partition the original message set exactly."""
        combined = MessageSet.concat(list(self.rounds))

        def _sorted_triples(ms: MessageSet) -> tuple[np.ndarray, ...]:
            order = np.lexsort((ms.nbytes, ms.dst, ms.src))
            return ms.src[order], ms.dst[order], ms.nbytes[order]

        ok = len(combined) == len(messages) and all(
            np.array_equal(a, b)
            for a, b in zip(_sorted_triples(combined), _sorted_triples(messages))
        )
        if not ok:
            raise AssertionError(
                f"{self.algorithm} schedule does not partition the message set"
            )


def _rounds_from_keys(
    messages: MessageSet, keys: np.ndarray, algorithm: str
) -> CollectiveSchedule:
    rounds = []
    for key in np.unique(keys):
        mask = keys == key
        rounds.append(
            MessageSet(
                messages.src[mask], messages.dst[mask], messages.nbytes[mask]
            )
        )
    return CollectiveSchedule(algorithm=algorithm, rounds=rounds)


def schedule_concurrent(messages: MessageSet) -> CollectiveSchedule:
    """Everything in one round (the optimistic overlap bound)."""
    rounds = [messages] if len(messages) else []
    return CollectiveSchedule(algorithm="concurrent", rounds=rounds)


def schedule_direct(messages: MessageSet, nranks: int) -> CollectiveSchedule:
    """Linear-shift schedule: round ``r`` pairs ``src → (src + r) mod P``.

    Every rank sends to at most one destination per round, so rounds are
    contention-light; empty rounds of the sparse exchange are skipped.
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if len(messages) == 0:
        return CollectiveSchedule(algorithm="direct", rounds=[])
    keys = (messages.dst - messages.src) % nranks
    return _rounds_from_keys(messages, keys, "direct")


def schedule_pairwise(messages: MessageSet, nranks: int) -> CollectiveSchedule:
    """Pairwise-exchange schedule: round ``r`` pairs ``src ↔ src XOR r``.

    Requires a power-of-two communicator (as on the paper's BG/L partition
    sizes); raises otherwise.
    """
    if nranks < 1 or nranks & (nranks - 1):
        raise ValueError(f"pairwise exchange needs power-of-two ranks, got {nranks}")
    if len(messages) == 0:
        return CollectiveSchedule(algorithm="pairwise", rounds=[])
    keys = np.bitwise_xor(messages.src, messages.dst)
    return _rounds_from_keys(messages, keys, "pairwise")


def scheduled_time(
    schedule: CollectiveSchedule,
    simulator: NetworkSimulator,
    round_latency: float = 0.0,
) -> float:
    """Wall-clock of a schedule: synchronised rounds, summed.

    ``round_latency`` adds a per-round synchronisation cost (barrier/round
    bookkeeping); the concurrent schedule with zero latency reproduces
    :meth:`NetworkSimulator.bottleneck_time` exactly.
    """
    if round_latency < 0:
        raise ValueError(f"round_latency must be >= 0, got {round_latency}")
    if not schedule.rounds:
        return 0.0
    # the soft_alpha * P count-array walk happens once per collective, not
    # once per round; charge it once on top of the per-round network times
    per_round = sum(
        simulator.bottleneck_time(r, include_floor=False) + round_latency
        for r in schedule.rounds
    )
    return per_round + simulator.cost.collective_floor(simulator.mapping.nranks)
