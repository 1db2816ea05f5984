"""One tracked simulation behind the service: state machine + fixtures.

A :class:`Session` is the unit of multi-tenancy: it owns every piece of
mutable state one tracked simulation needs — a fresh
:class:`~repro.experiments.runner.ExperimentContext` (machine, predictor
with its own memo cache, cost model), its own
:class:`~repro.mpisim.netsim.NetworkSimulator` and live link state (via
the reallocator the stepper builds), one per-session
:class:`~repro.obs.recorder.FlightRecorder` (the bounded ring carrying
its spans and decisions, named both ``recorder`` and ``flight``),
:class:`~repro.mpisim.ledger.CommLedger` and
:class:`~repro.obs.audit.AuditTrail`, and a per-session seeded RNG
stream.  Nothing is shared between sessions, which is what makes an
interleaved schedule bit-identical to a sequential one (the regression
test in ``tests/test_serve.py`` holds the service to that).

The lifecycle is a small validated state machine::

    PENDING ──> RUNNING ──> DONE
                │  ▲  │
                ▼  │  └────> FAILED
              PAUSED ──────> FAILED

``advance()`` runs exactly one adaptation point under the session's own
recorder (scoped with :func:`~repro.obs.use_recorder`, a ``ContextVar``,
so worker threads spawned with ``asyncio.to_thread`` inherit it), applies
any scheduled faults through the standard
:class:`~repro.faults.injector.FaultInjector` first, and transitions the
state machine at the edges.  A ``threading.Lock`` serialises concurrent
``advance`` calls on the same session — the scheduler's timeout path can
otherwise overlap a still-running step with its retry.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from repro.core.diffusion import DiffusionStrategy
from repro.core.invariants import InvariantViolation, check_all
from repro.core.metrics import StepMetrics
from repro.core.scratch import ScratchStrategy
from repro.core.strategy import ReallocationStrategy
from repro.experiments.runner import ExperimentContext, WorkloadStepper
from repro.experiments.workloads import (
    Workload,
    mumbai_trace_workload,
    synthetic_workload,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RankCrash
from repro.mpisim.ledger import CommLedger
from repro.obs import AuditTrail, FlightEvent, FlightRecorder, use_recorder
from repro.obs.recorder import ADAPTATION_SPAN
from repro.topology import MACHINES
from repro.util.logging import get_logger

__all__ = [
    "ScenarioSpec",
    "Session",
    "SessionError",
    "SessionKilled",
    "SessionState",
    "flight_signature",
]

#: events kept per session ring — the last dozen or so adaptation points
#: with every span, while keeping 64+ concurrent sessions bounded in memory
DEFAULT_SESSION_FLIGHT_CAPACITY = 2048

log = get_logger("serve.session")

_WORKLOADS = ("synthetic", "mumbai")
_STRATEGIES = ("scratch", "diffusion", "dynamic")
#: values of the retired ``kernels`` spec key that older journals carry
_LEGACY_KERNELS = ("vector", "reference")


class SessionState(str, Enum):
    """Lifecycle states of one session (journaled on every transition)."""

    PENDING = "pending"
    RUNNING = "running"
    PAUSED = "paused"
    FAILED = "failed"
    DONE = "done"


#: legal lifecycle transitions; anything else is a caller bug
_ALLOWED: dict[SessionState, frozenset[SessionState]] = {
    SessionState.PENDING: frozenset({SessionState.RUNNING, SessionState.FAILED}),
    SessionState.RUNNING: frozenset(
        {SessionState.PAUSED, SessionState.FAILED, SessionState.DONE}
    ),
    SessionState.PAUSED: frozenset({SessionState.RUNNING, SessionState.FAILED}),
    SessionState.FAILED: frozenset(),
    SessionState.DONE: frozenset(),
}

#: states a session never leaves
TERMINAL_STATES = frozenset({SessionState.FAILED, SessionState.DONE})


class SessionError(RuntimeError):
    """An operation is illegal in the session's current state."""


class SessionKilled(SessionError):
    """The session died to an injected fault (already FAILED when raised)."""


@dataclass(frozen=True)
class ScenarioSpec:
    """What a client submits: which workload to track, where, and how.

    The spec is the *whole* input of a session — everything else is
    derived deterministically from it, so a journal replay or a retried
    submission reproduces the exact same run.
    """

    workload: str = "synthetic"
    seed: int = 0
    steps: int = 8
    machine: str = "bgl-256"
    strategy: str = "diffusion"
    priority: int = 0

    def __post_init__(self) -> None:
        if self.workload not in _WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from {_WORKLOADS}"
            )
        if self.machine not in MACHINES:
            raise ValueError(
                f"unknown machine {self.machine!r}; choose from {sorted(MACHINES)}"
            )
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose from {_STRATEGIES}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.priority < 0:
            raise ValueError(f"priority must be >= 0, got {self.priority}")

    def to_dict(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "steps": self.steps,
            "machine": self.machine,
            "strategy": self.strategy,
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> ScenarioSpec:
        """Build a spec from an untrusted mapping (API request bodies).

        Journals and clients from before the kernel-mode switch was
        retired send a ``"kernels"`` key; either of its old values is
        dropped (inside a session the mode never changed a result), any
        other value is still rejected.
        """
        if not isinstance(payload, dict):
            raise ValueError("scenario spec must be a JSON object")
        if "kernels" in payload:
            legacy = payload["kernels"]
            if legacy not in _LEGACY_KERNELS:
                raise ValueError(
                    f"spec field 'kernels' must be one of {_LEGACY_KERNELS}, "
                    f"got {legacy!r}"
                )
            payload = {k: v for k, v in payload.items() if k != "kernels"}
        defaults = cls()
        kwargs: dict[str, object] = {}
        for name, kind in (
            ("workload", str),
            ("seed", int),
            ("steps", int),
            ("machine", str),
            ("strategy", str),
            ("priority", int),
        ):
            if name not in payload:
                continue
            value = payload[name]
            if kind is int and isinstance(value, bool):
                raise ValueError(f"spec field {name!r} must be an int")
            if not isinstance(value, kind):
                raise ValueError(f"spec field {name!r} must be {kind.__name__}")
            kwargs[name] = value
        unknown = sorted(set(payload) - set(defaults.to_dict()))
        if unknown:
            raise ValueError(f"unknown spec field(s): {', '.join(unknown)}")
        return cls(**kwargs)  # type: ignore[arg-type]


def _exec_noise_seed(seed: int) -> int:
    """The per-session execution-noise stream, derived from the spec seed."""
    return (seed * 7919 + 99) % 2**31


@dataclass
class _Transition:
    """One journaled lifecycle edge."""

    state: str
    reason: str = ""
    step: int = 0


class Session:
    """One tracked simulation: spec + private fixtures + state machine."""

    def __init__(
        self,
        session_id: str,
        spec: ScenarioSpec,
        flight_capacity: int = DEFAULT_SESSION_FLIGHT_CAPACITY,
    ) -> None:
        self.session_id = session_id
        self.spec = spec
        self.state = SessionState.PENDING
        self.error = ""
        self.recovered = False
        self.transitions: list[_Transition] = []
        #: called after every transition (the store journals through this)
        self.observer: Callable[[Session, _Transition], None] | None = None
        #: the session's one flight ring, kept for the session's whole
        #: life: followers read it by seq cursor, so hibernation must not
        #: restart its numbering
        self.recorder = FlightRecorder(capacity=flight_capacity)
        self._build_fixtures()
        self._stepper: WorkloadStepper | None = None
        self._injector: FaultInjector | None = None
        self._stalls: dict[int, float] = {}  # chaos: step index -> extra seconds
        self._hibernated = False
        self._hibernated_steps = 0
        self._lock = threading.Lock()

    def _build_fixtures(self) -> None:
        """(Re)create the simulation fixtures from the spec.

        Called at construction and again by :meth:`hibernate`: fixture
        contents are derived deterministically from the spec, so the
        re-materialising replay rebuilds them identically.
        """
        # -- per-session fixtures: nothing here is shared across sessions
        self.audit = AuditTrail()
        machine = MACHINES[self.spec.machine]
        self.ledger = CommLedger(machine.ncores)
        self.context = ExperimentContext(
            machine, audit=self.audit, ledger=self.ledger
        )

    # -- introspection --------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def busy(self) -> bool:
        """Whether a step currently holds the session lock.

        Cancelling a worker task does not stop its ``to_thread`` step;
        the fleet fault campaigns poll this to wait for true quiescence
        before they damage the journal under a stopped scheduler.
        """
        return self._lock.locked()

    @property
    def steps_completed(self) -> int:
        if self._stepper is not None:
            return self._stepper.next_step
        return self._hibernated_steps

    @property
    def hibernated(self) -> bool:
        """Whether the simulation state is currently dropped (see
        :meth:`hibernate`)."""
        return self._hibernated

    @property
    def flight(self) -> FlightRecorder:
        """The session's recorder under its flight-ring name."""
        return self.recorder

    def events(self, since_seq: int = 0) -> list[FlightEvent]:
        """Retained flight events with ``seq >= since_seq``, oldest first."""
        return [e for e in self.flight.events() if e.seq >= since_seq]

    def snapshot(self) -> dict[str, object]:
        """A JSON-ready view of the session for the API and the journal."""
        decisions = self.recorder.digests().get(ADAPTATION_SPAN)
        snap: dict[str, object] = {
            "id": self.session_id,
            "state": self.state.value,
            "spec": self.spec.to_dict(),
            "steps_completed": self.steps_completed,
            "steps_total": self.spec.steps,
            "events_emitted": self.flight.total_emitted,
            "events_dropped": self.flight.dropped,
            "decisions": decisions.count if decisions is not None else 0,
            "recovered": self.recovered,
        }
        if self.error:
            snap["error"] = self.error
        if self._hibernated:
            snap["hibernated"] = True
        if self._stepper is not None and self._stepper.metrics:
            snap["measured_redist_total"] = float(
                sum(m.measured_redist for m in self._stepper.metrics)
            )
        return snap

    # -- lifecycle -------------------------------------------------------

    def _transition(self, new: SessionState, reason: str = "") -> None:
        if new not in _ALLOWED[self.state]:
            raise SessionError(
                f"session {self.session_id}: illegal transition "
                f"{self.state.value} -> {new.value}"
            )
        self.state = new
        if new is SessionState.FAILED:
            self.error = reason
        record = _Transition(state=new.value, reason=reason, step=self.steps_completed)
        self.transitions.append(record)
        self.flight.emit(
            "session.state", state=new.value, reason=reason, step=record.step
        )
        if self.observer is not None:
            self.observer(self, record)

    def start(self) -> None:
        """PENDING → RUNNING: build the workload and the stepper."""
        if self.state is not SessionState.PENDING:
            raise SessionError(
                f"session {self.session_id}: cannot start from {self.state.value}"
            )
        workload = self._build_workload()
        self._stepper = WorkloadStepper(
            workload,
            self._build_strategy(),
            self.context,
            exec_noise_seed=_exec_noise_seed(self.spec.seed),
        )
        self._transition(SessionState.RUNNING)

    def pause(self) -> None:
        self._transition(SessionState.PAUSED)

    def resume(self) -> None:
        if self.state is not SessionState.PAUSED:
            raise SessionError(
                f"session {self.session_id}: cannot resume from {self.state.value}"
            )
        self._transition(SessionState.RUNNING)

    def hibernate(self) -> bool:
        """Drop a PAUSED session's simulation state to reclaim memory.

        Only the spec, lifecycle history, completed-step count and the
        flight ring survive; the stepper (with its reallocator and link
        state), ledger and audit trail are released.  The next
        :meth:`advance` after :meth:`resume` re-materialises them by
        deterministically replaying the completed steps from the spec —
        same decisions, same metrics, because the spec is the whole
        input of a session.  The ring keeps its events and its seq
        numbering, so a follower reading it by seq cursor sees every
        event exactly once across the drop.
        Returns ``True`` when state was actually dropped (``False`` for
        a session that never built a stepper or is already hibernated).
        Raises :class:`SessionError` outside PAUSED.
        """
        with self._lock:
            if self.state is not SessionState.PAUSED:
                raise SessionError(
                    f"session {self.session_id}: can only hibernate a "
                    f"paused session, not {self.state.value}"
                )
            if self._stepper is None:
                return False
            self._hibernated_steps = self._stepper.next_step
            self._stepper = None
            self._hibernated = True
            self._build_fixtures()
            self.flight.emit("session.hibernate", step=self._hibernated_steps)
            log.debug(
                "session %s hibernated at step %d",
                self.session_id,
                self._hibernated_steps,
            )
            return True

    def _rematerialize(self) -> WorkloadStepper:
        """Rebuild the stepper by replaying the hibernated steps.

        Called under the session lock from :meth:`advance`.  Replays
        ``_hibernated_steps`` adaptation points through fresh fixtures;
        the replay is bit-identical to the original run (seeded
        workload, seeded execution noise), so the stepper, ledger and
        audit trail land exactly where hibernation found them.  The
        replay records into a throwaway ring: the session's own ring
        already holds those points' events.
        """
        target = self._hibernated_steps
        stepper = WorkloadStepper(
            self._build_workload(),
            self._build_strategy(),
            self.context,
            exec_noise_seed=_exec_noise_seed(self.spec.seed),
        )
        self._stepper = stepper
        with use_recorder(FlightRecorder(capacity=self.recorder.capacity)):
            for _ in range(target):
                stepper.advance()
        self._hibernated = False
        self._hibernated_steps = 0
        self.flight.emit("session.rematerialize", step=target)
        log.debug(
            "session %s re-materialised through step %d", self.session_id, target
        )
        return stepper

    def fail(self, reason: str) -> None:
        """Force the session into FAILED (idempotent once terminal)."""
        if not self.terminal:
            self._transition(SessionState.FAILED, reason=reason)

    def restore(self, state: SessionState, steps: int, error: str = "") -> None:
        """Journal-recovery backdoor: adopt a previously journaled state.

        Only the store's :meth:`~repro.serve.store.SessionStore.recover`
        uses this; it bypasses transition validation because the journal
        already witnessed the legal path.
        """
        self.state = state
        self.error = error
        self.recovered = True
        self.transitions.append(
            _Transition(state=state.value, reason="recovered from journal", step=steps)
        )

    # -- faults ----------------------------------------------------------

    def inject_fault(self, rank: int = 0, at_step: int | None = None) -> int:
        """Schedule a rank crash through the standard faults machinery.

        Returns the adaptation point the crash will fire at (the next one
        by default).  The session fails at that step — the serve tier
        treats a dead rank as a dead tenant; grid-shrink recovery stays
        the business of :mod:`repro.faults.recovery`.
        """
        with self._lock:
            if self.terminal:
                raise SessionError(
                    f"session {self.session_id}: cannot inject a fault "
                    f"into a {self.state.value} session"
                )
            step = self.steps_completed if at_step is None else at_step
            plan = FaultPlan(faults=(RankCrash(step=step, rank=rank),))
            self._injector = FaultInjector(plan)
            return step

    def stall_step(self, seconds: float, at_step: int | None = None) -> int:
        """Chaos seam: hold the given adaptation point for ``seconds``.

        The stall happens inside ``advance`` while the session lock is
        held, which is exactly how a genuinely slow step looks to the
        scheduler — its ``wait_for`` fires, the retry serialises behind
        the lock, and the step still completes.  The pause is a pure
        delay (``threading.Event.wait``), so it perturbs *scheduling*
        without touching the simulation's deterministic state.  Returns
        the step that will stall (the next one by default).
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        with self._lock:
            if self.terminal:
                raise SessionError(
                    f"session {self.session_id}: cannot stall a "
                    f"{self.state.value} session"
                )
            step = self.steps_completed if at_step is None else at_step
            self._stalls[step] = seconds
            return step

    def check_invariants(self) -> int:
        """Run the core invariant suite on the current allocation.

        Returns the number of violations (0 or 1 — ``check_all`` stops at
        the first).  A session that never built its stepper, or whose
        reallocator holds no allocation yet, vacuously passes.
        """
        stepper = self._stepper
        if stepper is None or stepper.realloc.allocation is None:
            return 0
        try:
            check_all(
                stepper.realloc.allocation,
                plan=None,
                nest_sizes=dict(stepper.realloc.nest_sizes),
            )
        except InvariantViolation as exc:
            log.error("session %s: invariant violated: %s", self.session_id, exc)
            return 1
        return 0

    # -- the hot path ----------------------------------------------------

    def advance(self) -> StepMetrics:
        """Run one adaptation point under this session's own telemetry."""
        with self._lock:
            if self.state is SessionState.PENDING:
                self.start()
            if self.state is not SessionState.RUNNING:
                raise SessionError(
                    f"session {self.session_id}: cannot advance a "
                    f"{self.state.value} session"
                )
            stepper = self._stepper
            if stepper is None:
                stepper = self._rematerialize()
            stall = self._stalls.pop(stepper.next_step, 0.0)
            if stall > 0:
                # a fresh Event is never set: wait() is a plain interruptible
                # sleep that holds the session lock, like a slow step would
                threading.Event().wait(stall)
            with use_recorder(self.recorder):
                if self._injector is not None:
                    fired = self._injector.apply_step(stepper.next_step)
                    crashed = [f for f in fired if isinstance(f, RankCrash)]
                    if crashed:
                        reason = (
                            f"rank {crashed[0].rank} crashed at "
                            f"step {stepper.next_step}"
                        )
                        self._transition(SessionState.FAILED, reason=reason)
                        raise SessionKilled(f"session {self.session_id}: {reason}")
                metric = stepper.advance()
            if stepper.done:
                self._transition(SessionState.DONE)
            return metric

    def run_to_completion(self) -> None:
        """Drive the session to a terminal state (sequential twin of serve)."""
        while not self.terminal:
            self.advance()

    # -- fixture builders ------------------------------------------------

    def _build_workload(self) -> Workload:
        spec = self.spec
        if spec.workload == "synthetic":
            return synthetic_workload(seed=spec.seed, n_steps=spec.steps)
        return mumbai_trace_workload(seed=spec.seed, n_steps=spec.steps)

    def _build_strategy(self) -> ReallocationStrategy:
        if self.spec.strategy == "scratch":
            return ScratchStrategy()
        if self.spec.strategy == "diffusion":
            return DiffusionStrategy()
        return self.context.make_dynamic_strategy()


def flight_signature(
    events: list[FlightEvent],
) -> list[tuple[str, tuple[tuple[str, object], ...]]]:
    """A flight log reduced to its deterministic content.

    Drops the wall-clock timestamp (``t``) and keeps the sequence implied
    by list order plus every event's kind and data payload — the payload
    includes the simulated redistribution times, so two logs with equal
    signatures agree bit-for-bit on every decision the service made.
    """
    return [(e.kind, tuple(sorted(e.data.items()))) for e in events]
