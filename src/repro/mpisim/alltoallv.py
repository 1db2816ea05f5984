"""Alltoallv message matrices, predicted time and hop-bytes.

The redistribution of one nest is executed with ``MPI_Alltoallv`` over the
parent communicator; processors that are neither senders nor receivers
contribute zero-byte entries (paper §IV).  Only the non-zero, non-local
entries cost anything, so a :class:`MessageSet` stores the sparse triples.

*Predicted* time follows the paper's §IV-C1 exactly:

    "We assume direct algorithm for MPI_Alltoallv between the processors in
    mesh and torus based networks.  We predict MPI_Alltoallv time as the
    maximum communication time between senders and receivers. [...] For
    non-mesh networks like switched networks, the times taken for sender to
    send messages to all receivers can be added."

Hop-bytes (Fig. 10) is "the weighted sum of message sizes where the weights
are the number of hops travelled by the respective messages" (Bhatele et
al.); the figure reports it normalised per byte, i.e. the byte-weighted
average hop count, which is how :func:`hop_bytes` reports ``avg``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.overlap import TransferMatrix
from repro.mpisim.costmodel import CostModel
from repro.topology.machines import MachineSpec
from repro.topology.mapping import ProcessMapping

__all__ = ["MessageSet", "messages_from_transfer", "predict_alltoallv_time", "hop_bytes"]


@dataclass(frozen=True)
class MessageSet:
    """Sparse point-to-point messages of one collective: rank → rank → bytes.

    Entries with ``src == dst`` (local copies) are excluded by construction;
    use :func:`messages_from_transfer` to build one from a nest's
    :class:`~repro.grid.overlap.TransferMatrix`.  Byte counts are positive
    whole numbers, so every sum the network simulator takes over them is
    exact in any order.
    """

    src: np.ndarray  # sender ranks
    dst: np.ndarray  # receiver ranks
    nbytes: np.ndarray  # message sizes in whole bytes (float64)

    def __post_init__(self) -> None:
        n = len(self.src)
        if len(self.dst) != n or len(self.nbytes) != n:
            raise ValueError("src/dst/nbytes must have equal length")
        if n and bool((self.src == self.dst).any()):
            raise ValueError("MessageSet must not contain self-messages")
        # A negative rank would index the mapping from its end and be
        # priced as another rank.
        if n and min(self.src.min(), self.dst.min()) < 0:
            raise ValueError("MessageSet ranks must be non-negative")
        if n and bool((np.asarray(self.nbytes) <= 0).any()):
            raise ValueError("MessageSet must not contain empty messages")
        # The wire's sums are exact in any order only over whole bytes.
        if n and bool((np.floor(self.nbytes) != self.nbytes).any()):
            raise ValueError("MessageSet byte counts must be integer-valued")

    def __len__(self) -> int:
        return len(self.src)

    @property
    def total_bytes(self) -> float:
        return float(np.sum(self.nbytes))

    @staticmethod
    def concat(parts: list["MessageSet"]) -> "MessageSet":
        """Merge message sets (e.g. the per-nest redistributions of one
        adaptation point, which execute as consecutive alltoallv calls)."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return MessageSet(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        return MessageSet(
            np.concatenate([p.src for p in parts]),
            np.concatenate([p.dst for p in parts]),
            np.concatenate([p.nbytes for p in parts]),
        )


def messages_from_transfer(
    transfer: TransferMatrix, bytes_per_point: float
) -> MessageSet:
    """Network messages for one nest's redistribution.

    Local copies (sender == receiver) are dropped: they are the overlap the
    diffusion strategy maximises and cost no network time.
    """
    mask = transfer.network_mask
    return MessageSet(
        src=transfer.senders[mask].astype(np.int64),
        dst=transfer.receivers[mask].astype(np.int64),
        nbytes=transfer.points[mask].astype(np.float64) * float(bytes_per_point),
    )


def predict_alltoallv_time(
    messages: MessageSet,
    machine: MachineSpec,
    cost: CostModel,
    hops: np.ndarray,
) -> float:
    """§IV-C1 prediction of the alltoallv redistribution time.

    Torus/mesh: ``max`` over sender→receiver pairs of
    ``α + (hops·β + soft_β)·bytes``.  Switched: per-sender serialisation —
    ``max`` over senders of ``Σ (α + (β + soft_β)·bytes)``.  Both carry the
    ``soft_α · P`` full-communicator collective floor (the alltoallv runs
    over the parent communicator; non-participants contribute zero counts
    but still walk the count arrays).  ``hops`` are the messages' hop
    counts under ``machine.mapping``, counted once by the caller.
    """
    if len(messages) == 0:
        return 0.0
    floor = cost.collective_floor(machine.ncores)
    if machine.is_torus:
        times = (
            cost.alpha
            + (np.maximum(hops, 1) * cost.beta + cost.soft_beta) * messages.nbytes
        )
        return float(times.max()) + floor
    # switched: add per-sender message times
    per_msg = cost.alpha + (cost.beta + cost.soft_beta) * messages.nbytes
    totals = np.zeros(machine.ncores, dtype=np.float64)
    np.add.at(totals, messages.src, per_msg)
    return float(totals.max()) + floor


def hop_bytes(messages: MessageSet, mapping: ProcessMapping) -> tuple[float, float]:
    """Hop-bytes of a message set under ``mapping``.

    Returns ``(total, avg)`` where ``total = Σ hops·bytes`` and ``avg`` is
    the byte-weighted average hop count (the per-case value of Fig. 10).
    ``avg`` is 0 for an empty message set.  A plan's moves count their
    hops once where they are built; this independent recount is what the
    tests hold those counts to.
    """
    if len(messages) == 0:
        return 0.0, 0.0
    hops = mapping.rank_hops(messages.src, messages.dst).astype(np.float64)
    total = float(np.sum(hops * messages.nbytes))
    return total, total / messages.total_bytes
