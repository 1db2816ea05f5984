"""repro.faults — deterministic fault injection and recovery.

The robustness subsystem: everything needed to break the pipeline or the
serving tier around it on purpose, and prove both heal.

* :mod:`~repro.faults.plan` — one typed, seeded fault plan with eleven
  kinds in two layers: the machine layer (rank crash, link degradation,
  stragglers, damaged split files) and the service layer (worker crash,
  step stall, session kill, slow or vanishing consumers, journal
  truncation or corruption);
* :mod:`~repro.faults.injector` — applies a plan's machine layer to the
  live hooks in :mod:`repro.mpisim` and :mod:`repro.analysis`;
* :mod:`~repro.faults.recovery` — heartbeat detection, ReSHAPE-style grid
  shrink, tree excision via the standard diffusion edit, invariant-checked
  degraded-mode reallocation, data-plane rebuild;
* :mod:`~repro.faults.checkpoint` — durable nest state
  (allocation tree + gathered fields) recovery resumes from;
* :mod:`~repro.faults.soak` — the machine-layer runner and its suites
  (``repro faults run --suite quick|full|mumbai``);
* :mod:`~repro.faults.fleet` — the service-layer campaign driver and its
  suites (``repro faults run --suite fleet-quick|fleet-full``).

Both runners work under an armed conservation sanitizer and share one
verdict rule (:func:`~repro.faults.soak.verdict_ok`).  The fleet driver
drives the whole serve stack, and :mod:`repro.serve.session` imports this
package's plan and injector, so it is intentionally **not** imported here
— ``from repro.faults.fleet import run_campaign`` when you need it.

Every fault and every recovery decision is observable: flight events
trace injection → detection → recovery, a soak report keeps one row per
recovery (:func:`~repro.faults.soak.format_recoveries`), and the
communication ledger attributes retry traffic.  See ``docs/robustness.md``.
"""

from __future__ import annotations

from repro.faults.checkpoint import Checkpoint
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ConsumerDisconnect,
    FaultPlan,
    FaultSpec,
    JournalCorrupt,
    JournalTruncate,
    LinkFault,
    MachineFault,
    RankCrash,
    RankStraggler,
    ServiceFault,
    SessionKill,
    SlowConsumer,
    SplitFileFault,
    StepStall,
    WorkerCrash,
)
from repro.faults.recovery import (
    HealthView,
    RankRemap,
    RecoveryError,
    RecoveryResult,
    plan_shrink,
    recover_from_rank_failure,
)
from repro.faults.soak import (
    SUITES,
    SoakConfig,
    SoakReport,
    format_recoveries,
    format_soak_report,
    run_soak,
    verdict_ok,
)

__all__ = [
    "SUITES",
    "Checkpoint",
    "ConsumerDisconnect",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "HealthView",
    "JournalCorrupt",
    "JournalTruncate",
    "LinkFault",
    "MachineFault",
    "RankCrash",
    "RankRemap",
    "RankStraggler",
    "RecoveryError",
    "RecoveryResult",
    "ServiceFault",
    "SessionKill",
    "SlowConsumer",
    "SoakConfig",
    "SoakReport",
    "SplitFileFault",
    "StepStall",
    "WorkerCrash",
    "format_recoveries",
    "format_soak_report",
    "plan_shrink",
    "recover_from_rank_failure",
    "run_soak",
    "verdict_ok",
]
