"""Simulated MPI substrate.

The paper measures its strategies with real ``MPI_Alltoallv`` calls on Blue
Gene/L and an Infiniband cluster.  Offline we substitute a simulation with
the same observable quantities:

* :mod:`repro.mpisim.alltoallv` — message matrices for nest redistribution
  and the paper's §IV-C1 *predicted* time (direct-algorithm model after
  Kumar et al., ICPP'08: max sender→receiver pair time on mesh/torus
  networks, per-sender sums on switched networks), plus the hop-bytes
  metric of Fig. 10;
* :mod:`repro.mpisim.netsim` — a link-level network simulator that routes
  every message over the physical topology and accounts for contention,
  producing the *measured* redistribution times;
* :mod:`repro.mpisim.ledger` — a per-rank communication ledger (bytes
  sent/received, hop-bytes, busiest-link share per rank pair) with
  Gini/max-mean skew digests for diagnosing transfer imbalance;
* :mod:`repro.mpisim.costmodel` — latency/bandwidth parameters per machine;
* :mod:`repro.mpisim.comm` — a tiny SPMD harness used to run the parallel
  data analysis (Algorithm 1) as N simulated analysis processes.
"""

from repro.mpisim.costmodel import CostModel
from repro.mpisim.alltoallv import (
    MessageSet,
    messages_from_transfer,
    predict_alltoallv_time,
    hop_bytes,
)
from repro.mpisim.netsim import LinkLoadState, NetworkSimulator
from repro.mpisim.ledger import (
    CommLedger,
    PairByteAccumulator,
    SkewSummary,
    format_ledger,
    gini,
)
from repro.mpisim.collectives import (
    CollectiveSchedule,
    schedule_concurrent,
    schedule_direct,
    schedule_pairwise,
    scheduled_time,
)
from repro.mpisim.halo import halo_messages
from repro.mpisim.comm import SimComm

__all__ = [
    "CostModel",
    "MessageSet",
    "messages_from_transfer",
    "predict_alltoallv_time",
    "hop_bytes",
    "NetworkSimulator",
    "LinkLoadState",
    "CommLedger",
    "PairByteAccumulator",
    "SkewSummary",
    "format_ledger",
    "gini",
    "CollectiveSchedule",
    "schedule_concurrent",
    "schedule_direct",
    "schedule_pairwise",
    "scheduled_time",
    "halo_messages",
    "SimComm",
]
