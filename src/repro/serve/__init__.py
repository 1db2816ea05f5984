"""Multi-tenant serving tier: many tracked simulations in one process.

The paper's reallocation strategies are libraries; :mod:`repro.serve`
turns them into a *service*.  A session (:mod:`repro.serve.session`)
wraps one tracked simulation with private fixtures and a validated
lifecycle; the store (:mod:`repro.serve.store`) keeps sessions by id
with a JSONL journal for crash recovery; the scheduler
(:mod:`repro.serve.scheduler`) drives every runnable session one
adaptation point at a time from a pool of stateless asyncio workers;
the API (:mod:`repro.serve.api`) exposes it all over plain-stdlib HTTP;
and the load generator (:mod:`repro.serve.loadgen`) measures the whole
stack closed-loop for the ``serve.*`` benchmark phases.

The tier is hardened for failure on purpose: the scheduler supervises
its workers (crashed worker tasks restart with seeded backoff and their
in-flight session is re-queued exactly once), the API sheds load with
503 + ``Retry-After`` when draining or over the queue high-water mark,
``POST /drain`` shuts the service down gracefully, and the store's
journal is crash-consistent (truncated tails skipped and counted,
mid-file corruption refused, compaction on recovery).
:mod:`repro.faults.fleet` drives all of it through seeded fault
campaigns (``repro faults run --suite fleet-quick``).

See ``docs/serving.md`` for the architecture tour and
``docs/robustness.md`` for the fleet campaigns.
"""

from repro.serve.session import (
    ScenarioSpec,
    Session,
    SessionError,
    SessionKilled,
    SessionState,
    flight_signature,
)
from repro.serve.store import SessionStore, StoreFull
from repro.serve.scheduler import SchedulerConfig, ServiceHealth, SessionScheduler
from repro.serve.loadgen import LoadgenConfig, LoadgenResult, run_loadgen

__all__ = [
    "LoadgenConfig",
    "LoadgenResult",
    "ScenarioSpec",
    "SchedulerConfig",
    "ServiceHealth",
    "Session",
    "SessionError",
    "SessionKilled",
    "SessionScheduler",
    "SessionState",
    "SessionStore",
    "StoreFull",
    "flight_signature",
    "run_loadgen",
]
