"""Redistribution-time prediction and measurement (paper §IV-C1).

Each retained nest redistributes with its own ``MPI_Alltoallv`` ("followed
by MPI_Alltoallv to redistribute data for each nest"); the per-adaptation
redistribution time is the sum over retained nests.

*Predicted* uses the direct-algorithm analytical model
(:func:`repro.mpisim.alltoallv.predict_alltoallv_time`); *measured* routes
the same messages through the contention-aware network simulator.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.mpisim.alltoallv import MessageSet, predict_alltoallv_time
from repro.mpisim.costmodel import CostModel
from repro.mpisim.netsim import NetworkSimulator
from repro.topology.machines import MachineSpec

__all__ = ["predict_redistribution_time", "measure_redistribution_time"]


def predict_redistribution_time(
    per_nest_messages: list[MessageSet], machine: MachineSpec, cost: CostModel
) -> float:
    """§IV-C1 analytical prediction, summed over the per-nest collectives."""
    return sum(
        predict_alltoallv_time(msgs, machine, cost) for msgs in per_nest_messages
    )


def measure_redistribution_time(
    per_nest_messages: list[MessageSet],
    simulator: NetworkSimulator,
    flow_level: bool = False,
    link_arrays: Sequence[tuple[np.ndarray, np.ndarray] | None] | None = None,
) -> float:
    """Simulated ("measured") redistribution time, summed over nests.

    ``flow_level=True`` uses the max-min-fair flow simulation instead of the
    bottleneck bound (slower, slightly more faithful).  ``link_arrays``
    (bottleneck bound only) gives, per nest, the link loads its messages
    already put on ``simulator``'s links, or ``None`` to route them here.
    """
    if flow_level:
        return sum(simulator.flow_time(msgs) for msgs in per_nest_messages)
    arrays = link_arrays or [None] * len(per_nest_messages)
    return sum(
        simulator.bottleneck_time(msgs, link_arrays=a)
        for msgs, a in zip(per_nest_messages, arrays)
    )
