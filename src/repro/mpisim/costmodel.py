"""Communication cost parameters (the α–β model, per machine).

``alpha`` is the per-message software + wire latency; ``beta`` the inverse
bandwidth of one link (seconds per byte).  ``bytes_per_point`` is the
payload a nest carries per grid point during redistribution: WRF
redistributes the full 3D prognostic state of the nest, i.e. every vertical
level of every redistributed variable — with the paper's typical
configuration (~27 vertical levels and a handful of 3D fields plus surface
fields) we default to ``8 bytes * 27 levels * 6 variables ≈ 1296`` bytes
per horizontal grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.machines import MachineSpec

__all__ = ["CostModel"]


#: Full redistributed nest state per horizontal grid point: ~32 prognostic
#: 3D variables x 27 vertical levels x 8 bytes.
DEFAULT_BYTES_PER_POINT = 32 * 27 * 8.0


@dataclass(frozen=True)
class CostModel:
    """α–β communication model plus software costs and payload size.

    Beyond wire latency/bandwidth, two software terms dominate a real
    ``MPI_Alltoallv`` over the full parent communicator:

    * ``soft_beta`` — per-byte endpoint cost of packing/unpacking the
      strided nest state into message buffers (memory-bandwidth bound;
      ~150 MB/s on a 700 MHz PowerPC 440);
    * ``soft_alpha`` — per-participant bookkeeping of the collective: every
      rank walks all ``P`` send/recv count entries even when they are zero,
      so each collective carries a ``soft_alpha * P`` floor.
    """

    alpha: float  # per-message wire latency, seconds
    beta: float  # seconds per byte per link
    bytes_per_point: float = DEFAULT_BYTES_PER_POINT
    soft_beta: float = 1.0 / 150e6  # endpoint pack/unpack, s per byte
    soft_alpha: float = 8e-6  # per-participant collective bookkeeping, s

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.bytes_per_point <= 0:
            raise ValueError(f"bytes_per_point must be > 0, got {self.bytes_per_point}")
        # Messages carry whole points, so this keeps every byte count whole.
        if not float(self.bytes_per_point).is_integer():
            raise ValueError(
                f"bytes_per_point must be integer-valued, got {self.bytes_per_point}"
            )
        if self.soft_beta < 0 or self.soft_alpha < 0:
            raise ValueError("software cost terms must be >= 0")

    @classmethod
    def for_machine(
        cls, machine: MachineSpec, bytes_per_point: float = DEFAULT_BYTES_PER_POINT
    ) -> "CostModel":
        """Cost model matching a machine's link latency/bandwidth."""
        topo = machine.topology
        return cls(
            alpha=topo.link_latency,
            beta=1.0 / topo.link_bandwidth,
            bytes_per_point=bytes_per_point,
        )

    def collective_floor(self, nparticipants: int) -> float:
        """Software floor of one full-communicator collective."""
        if nparticipants < 0:
            raise ValueError(f"nparticipants must be >= 0, got {nparticipants}")
        return self.soft_alpha * nparticipants
