"""The asyncio scheduler: stateless workers over the session store.

Workers are interchangeable — all session state lives in the
:class:`~repro.serve.session.Session`, so any worker can run any
session's next adaptation point.  Scheduling is a single
``asyncio.PriorityQueue`` of ``(lane, seq, session_id)`` entries:

* ``lane`` 0 is the priority lane (specs with ``priority > 0``), lane 1
  the default — the priority lane always drains first;
* ``seq`` is a monotonic counter, so entries inside a lane are FIFO and
  a session that just ran goes to the *tail* of its lane — fair
  round-robin among equals.

Each step runs in a thread (``asyncio.to_thread``) because the
reallocation pipeline is CPU-bound numpy; the event loop stays free to
accept requests and stream events.  ``to_thread`` copies the calling
context, so the session's ContextVar-scoped recorder travels with the
step.  Steps that exceed the per-step timeout are
retried under the same :class:`~repro.core.dataplane.BackoffPolicy` the
redistribution dataplane uses — its delays are simulated seconds, which
the scheduler maps to real sleeps via ``backoff_scale`` — and a step
that keeps timing out fails its session rather than the service.

Liveness is a sliding window over recent step outcomes
(:class:`ServiceHealth`): one failure flips ``/healthz`` to degraded,
and the service reports healthy again once enough healthy steps push
the failure out of the window — degraded-then-recovered, observable
from the outside.

The pool is *supervised*: a supervisor task watches the workers and
restarts any that die (chaos kills them on purpose through
:meth:`SessionScheduler.crash_worker`; a bug could too) after a seeded
backoff pause.  A worker cancelled mid-step records which session it
was advancing, and the supervisor re-queues exactly that session exactly
once — safe because ``advance`` is idempotent at the queue level: the
orphaned ``to_thread`` step finishes under the session lock, the
re-queued entry simply runs the *next* step from the
:class:`~repro.experiments.runner.WorkloadStepper` resume point (or
no-ops if the session meanwhile reached a terminal state).

``begin_drain`` flips the scheduler into drain mode: queued entries are
discarded as they surface (their ``task_done`` still fires, so
``drain()`` completes), in-flight steps finish naturally, and completed
steps stop re-queueing — intake off, nothing abandoned mid-step.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from collections import deque

from repro.core.dataplane import BackoffPolicy
from repro.serve.session import Session, SessionError, SessionKilled
from repro.serve.store import SessionStore
from repro.util.logging import get_logger
from repro.util.rng import make_rng

__all__ = ["SchedulerConfig", "ServiceHealth", "SessionScheduler"]

log = get_logger("serve.scheduler")

#: queue lane of priority sessions (drains before the default lane)
_PRIORITY_LANE = 0
_DEFAULT_LANE = 1

#: the step-retry and worker-restart backoff (simulated seconds, scaled by
#: ``SchedulerConfig.backoff_scale`` into real pauses)
_BACKOFF = BackoffPolicy()
#: jitter stream of the step-retry backoff; restarts draw from the next seed
_BACKOFF_SEED = 424242


@dataclass(frozen=True)
class SchedulerConfig:
    """Tuning knobs of the serving tier."""

    workers: int = 4
    step_timeout: float = 30.0  # real seconds one adaptation point may take
    max_step_retries: int = 2  # timeout retries before the session fails
    backoff_scale: float = 0.01  # simulated backoff seconds -> real sleep seconds
    health_window: int = 16  # step outcomes the liveness window remembers
    max_worker_restarts: int = 32  # supervisor gives up past this (crash loop)
    admission_high_water: int = 256  # queue depth beyond which intake sheds
    #: also shed while the liveness window holds a failure.  Off by
    #: default: only *steps* heal the window, so a degraded-but-idle
    #: service that shed everything could never recover — enable it where
    #: a load balancer retries elsewhere (and in chaos campaigns)
    shed_when_degraded: bool = False
    #: hibernate sessions PAUSED for more than this many store ticks
    #: (one tick per completed fleet step — a logical clock, not wall
    #: time); their fixtures are dropped and re-materialise by replay on
    #: resume.  ``None`` disables the sweep.
    hibernate_ttl: int | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.step_timeout <= 0:
            raise ValueError(f"step_timeout must be > 0, got {self.step_timeout}")
        if self.max_step_retries < 0:
            raise ValueError(
                f"max_step_retries must be >= 0, got {self.max_step_retries}"
            )
        if self.backoff_scale < 0:
            raise ValueError(f"backoff_scale must be >= 0, got {self.backoff_scale}")
        if self.health_window < 1:
            raise ValueError(f"health_window must be >= 1, got {self.health_window}")
        if self.max_worker_restarts < 0:
            raise ValueError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        if self.admission_high_water < 1:
            raise ValueError(
                f"admission_high_water must be >= 1, got {self.admission_high_water}"
            )
        if self.hibernate_ttl is not None and self.hibernate_ttl < 0:
            raise ValueError(
                f"hibernate_ttl must be >= 0 or None, got {self.hibernate_ttl}"
            )


class ServiceHealth:
    """Sliding-window liveness: degraded while a recent step failed.

    The window holds the outcome of the last ``window`` adaptation
    points across *all* sessions.  Any failure in the window makes the
    service degraded; it recovers automatically once newer healthy steps
    age the failure out.  Lifetime totals are kept alongside for
    ``/metrics``.
    """

    def __init__(self, window: int = 16) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._recent: deque[bool] = deque(maxlen=window)
        self.steps_ok = 0
        self.steps_failed = 0

    def record_ok(self) -> None:
        self._recent.append(True)
        self.steps_ok += 1

    def record_failure(self) -> None:
        self._recent.append(False)
        self.steps_failed += 1

    @property
    def degraded(self) -> bool:
        return not all(self._recent)

    @property
    def status(self) -> str:
        return "degraded" if self.degraded else "ok"

    def snapshot(self) -> dict[str, object]:
        return {
            "status": self.status,
            "window": self.window,
            "recent_failures": sum(1 for ok in self._recent if not ok),
            "steps_ok": self.steps_ok,
            "steps_failed": self.steps_failed,
        }


class SessionScheduler:
    """N stateless asyncio workers advancing store sessions step by step."""

    def __init__(
        self, store: SessionStore, config: SchedulerConfig | None = None
    ) -> None:
        self.store = store
        self.config = config if config is not None else SchedulerConfig()
        self.health = ServiceHealth(self.config.health_window)
        self._queue: asyncio.PriorityQueue[tuple[int, int, str]] = (
            asyncio.PriorityQueue()
        )
        self._seq = itertools.count()
        self._workers: list[asyncio.Task[None]] = []
        self._supervisor: asyncio.Task[None] | None = None
        self._stopping = False
        #: worker index -> session id it was advancing when cancelled; the
        #: supervisor pops each entry exactly once when it restarts the worker
        self._interrupted: dict[int, str] = {}
        self._backoff_rng = make_rng(_BACKOFF_SEED)
        # the supervisor jitters restart pauses from its own stream so a
        # chaos campaign's timeline never shifts the step-retry jitter
        self._restart_rng = make_rng(_BACKOFF_SEED + 1)
        self.steps_run = 0
        self.step_timeouts = 0
        self.worker_restarts = 0
        #: sessions rejected at the door (admission control lives in the
        #: API layer, the counter here so /metrics sees one scheduler)
        self.shed_total = 0
        self.draining = False
        #: external submissions by lane name (requeues after a completed
        #: step bypass ``submit`` on purpose and are not counted here)
        self.lane_submitted: dict[str, int] = {"priority": 0, "default": 0}

    # -- submission ------------------------------------------------------

    @staticmethod
    def _lane_of(session: Session) -> int:
        return _PRIORITY_LANE if session.spec.priority > 0 else _DEFAULT_LANE

    def submit(self, session: Session) -> None:
        """Queue a session for its next adaptation point."""
        lane = self._lane_of(session)
        name = "priority" if lane == _PRIORITY_LANE else "default"
        self.lane_submitted[name] += 1
        self._queue.put_nowait((lane, next(self._seq), session.session_id))

    def submit_all_pending(self) -> int:
        """Queue every non-terminal session of the store; returns how many."""
        sessions = self.store.live()
        for session in sessions:
            self.submit(session)
        return len(sessions)

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # -- worker pool lifecycle -------------------------------------------

    async def start(self) -> None:
        """Spawn the worker pool and its supervisor (idempotent)."""
        if self._workers:
            return
        self._stopping = False
        self._workers = [self._spawn_worker(i) for i in range(self.config.workers)]
        self._supervisor = asyncio.create_task(
            self._supervise(), name="serve-supervisor"
        )

    def _spawn_worker(self, index: int) -> asyncio.Task[None]:
        return asyncio.create_task(self._worker(index), name=f"serve-worker-{index}")

    async def stop(self) -> None:
        """Cancel the supervisor and workers and wait for them to unwind."""
        self._stopping = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                log.debug("supervisor cancelled")
            self._supervisor = None
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                log.debug("worker %s cancelled", task.get_name())
        self._workers = []
        self._interrupted.clear()

    # -- chaos + supervision ---------------------------------------------

    def crash_worker(self, index: int) -> str:
        """Chaos seam: kill one live worker task as if it had crashed.

        The supervisor notices, restarts the slot after a seeded backoff,
        and re-queues whatever session the worker was holding.  If the
        targeted slot is already dead (e.g. a previous crash whose
        restart is still in its backoff pause), the next live worker is
        crashed instead, so every planned crash costs exactly one
        worker.  Returns the cancelled task's name.
        """
        if not self._workers:
            raise RuntimeError("scheduler is not running")
        n = len(self._workers)
        for offset in range(n):
            task = self._workers[(index + offset) % n]
            # a task with a pending cancel request is already as good as
            # dead — two back-to-back crashes must cost two workers, not
            # collapse onto one not-yet-reaped victim
            if not task.done() and task.cancelling() == 0:
                task.cancel()
                return task.get_name()
        raise RuntimeError("no live worker left to crash")

    async def _supervise(self) -> None:
        """Restart dead workers with seeded backoff; re-queue their session.

        Each round first sweeps for *already*-dead workers — a worker can
        die while the supervisor is asleep in a previous restart's
        backoff, and a wait over only-live tasks would never see it —
        and only parks in ``asyncio.wait`` once every slot is alive (or
        permanently abandoned to a spent restart budget).
        """
        abandoned: set[int] = set()
        while True:
            if self._stopping:
                return
            dead = [
                (i, t)
                for i, t in enumerate(self._workers)
                if t.done() and i not in abandoned
            ]
            if not dead:
                pending = [t for t in self._workers if not t.done()]
                if not pending:
                    log.error("supervisor: no live workers left")
                    return
                await asyncio.wait(pending, return_when=asyncio.FIRST_COMPLETED)
                continue
            for index, task in dead:
                try:
                    exc = task.exception()
                except asyncio.CancelledError:
                    exc = None
                if self.worker_restarts >= self.config.max_worker_restarts:
                    log.error(
                        "worker %s died (%r) but the restart budget (%d) is "
                        "spent — leaving the slot dead",
                        task.get_name(),
                        exc,
                        self.config.max_worker_restarts,
                    )
                    abandoned.add(index)
                    continue
                self.worker_restarts += 1
                pause = _BACKOFF.delay(1, self._restart_rng) * self.config.backoff_scale
                log.warning(
                    "worker %s died (%r); restarting after %.3fs",
                    task.get_name(),
                    exc,
                    pause,
                )
                await asyncio.sleep(pause)
                self._workers[index] = self._spawn_worker(index)
                self._requeue_interrupted(index)

    def _requeue_interrupted(self, index: int) -> None:
        """Re-queue the session a cancelled worker was mid-step on, once."""
        sid = self._interrupted.pop(index, None)
        if sid is None:
            return
        try:
            session = self.store.get(sid)
        except KeyError:
            return
        if session.terminal or self.draining:
            return
        self._queue.put_nowait((self._lane_of(session), next(self._seq), sid))
        log.info("re-queued session %s after worker %d crash", sid, index)

    def begin_drain(self) -> None:
        """Stop intake: discard queued entries, let in-flight steps finish.

        After this, ``drain()`` completes as soon as the queue empties —
        completed steps no longer re-queue their session.  The flag is
        one-way for the scheduler's lifetime; restart the service to
        accept work again.
        """
        self.draining = True

    async def drain(self) -> None:
        """Wait until every queued session has reached a terminal state.

        Sessions requeue themselves after each step *before* marking the
        queue entry done, so ``join()`` only completes once nothing is
        queued and nothing will requeue — i.e. every submitted session is
        DONE or FAILED (or, after :meth:`begin_drain`, simply parked).
        """
        await self._queue.join()

    async def run_until_drained(self) -> None:
        """Convenience: submit pending, run workers, drain, stop."""
        self.submit_all_pending()
        await self.start()
        try:
            await self.drain()
        finally:
            await self.stop()

    # -- the worker loop -------------------------------------------------

    async def _worker(self, index: int) -> None:
        while True:
            lane, _seq, sid = await self._queue.get()
            try:
                await self._advance_one(sid, lane)
            except asyncio.CancelledError:
                # crashed (or chaos-cancelled) mid-step: leave a note so the
                # supervisor can re-queue this session with the restart
                self._interrupted[index] = sid
                raise
            except Exception:
                # a worker must never die to one bad session
                log.exception("worker %d: unexpected error on %s", index, sid)
                self.health.record_failure()
            finally:
                self._queue.task_done()

    async def _advance_one(self, sid: str, lane: int) -> None:
        if self.draining:
            return  # drain discards queued work; in-flight steps finish
        try:
            session = self.store.get(sid)
        except KeyError:
            log.debug("session %s vanished before its turn", sid)
            return
        if session.terminal:
            return
        retries = 0
        while True:
            try:
                # asyncio.timeout, not wait_for: under 3.11 wait_for can
                # absorb an *external* Task.cancel() that races its own
                # timeout cancellation, leaving a chaos-crashed worker
                # alive with its cancel silently lost.  timeout() only
                # converts its own expiry to TimeoutError; a real cancel
                # always propagates.
                async with asyncio.timeout(self.config.step_timeout):
                    await asyncio.to_thread(session.advance)
                self.steps_run += 1
                self.health.record_ok()
                self.store.tick()
                if self.config.hibernate_ttl is not None:
                    # sweep off the event loop: hibernation drops fixtures
                    # and replays nothing, so it is cheap, but it does take
                    # each candidate's session lock
                    await asyncio.to_thread(
                        self.store.hibernate_idle, self.config.hibernate_ttl
                    )
                break
            except SessionKilled:
                # the session already transitioned to FAILED
                self.health.record_failure()
                return
            except SessionError as exc:
                # e.g. paused under our feet; not a service failure
                log.debug("session %s not runnable: %s", sid, exc)
                return
            except TimeoutError:
                retries += 1
                self.step_timeouts += 1
                if retries > self.config.max_step_retries:
                    session.fail(
                        f"adaptation point exceeded {self.config.step_timeout}s "
                        f"{retries} time(s)"
                    )
                    self.health.record_failure()
                    return
                # simulated backoff seconds scaled into a real pause; the
                # orphaned step still holds the session lock, so the retry
                # serialises behind it
                pause = (
                    _BACKOFF.delay(retries, self._backoff_rng) * self.config.backoff_scale
                )
                log.warning(
                    "session %s: step timed out (retry %d after %.3fs)",
                    sid,
                    retries,
                    pause,
                )
                await asyncio.sleep(pause)
            except Exception as exc:
                session.fail(f"{type(exc).__name__}: {exc}")
                self.health.record_failure()
                log.exception("session %s failed", sid)
                return
        if not session.terminal and not self.draining:
            # back of its own lane: fair round-robin among peers
            self._queue.put_nowait((lane, next(self._seq), sid))
