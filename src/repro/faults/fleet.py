"""The service-layer fault runner: drive a live serve fleet through a plan.

A campaign is ``(plan, seed)`` plus fleet geometry — and nothing else.
:func:`run_campaign` plays the service-layer faults of a
:class:`~repro.faults.plan.FaultPlan` in four phases:

1. **Twins** — every session that the plan lets survive is first run
   sequentially, alone, unperturbed.  Its
   :func:`~repro.serve.session.flight_signature` is the oracle the
   faulted run must match bit-for-bit.
2. **Fleet** — the real serving stack (store, supervised scheduler,
   optionally the HTTP front end) runs the same specs while the plan's
   faults land: stalls and kills pre-scheduled on the target session's
   own step counter, NDJSON consumers attached before the first step,
   worker crashes fired on fleet progress.
3. **Restart** (journal campaigns only) — the fleet is hard-stopped
   mid-run, the journal damaged as planned, and the store rebuilt with
   :meth:`~repro.serve.store.SessionStore.recover`; a fresh scheduler
   then drives the recovered fleet to completion.
4. **Verdict** — the report keeps two strata apart: the *verdict* holds
   only facts fully determined by ``(plan, seed)`` (fault counts,
   terminal-state counts, signature agreement, sanitizer and invariant
   outcomes, judged by the rule :func:`~repro.faults.soak.verdict_ok`
   shares with the soak), while timing-dependent observations (how many
   retries a stall cost) stay in the diagnostics.  Running the same campaign twice must produce identical
   verdicts — ``tests/test_chaos.py`` and the CI ``faults`` job hold it
   to that.

The campaign drives the serve stack rather than one reallocator, so it
keeps its own asyncio driver instead of :func:`~repro.faults.soak.run_soak`.
Campaign-level telemetry goes to the campaign's own
:class:`~repro.obs.recorder.FlightRecorder` (``chaos.*`` events); the
sessions' flight rings stay exactly as a fault-free service would leave
them — that is the point.

The named suites: ``fleet-quick`` is the CI gate (run twice, verdicts
diffed): a supervised worker-crash campaign plus a crash/recover
journal-truncation campaign.  ``fleet-full`` adds the HTTP edge — slow
and abruptly-disconnecting NDJSON consumers with the drain discipline
checked at the end — and mid-file journal corruption.  Every campaign in
a suite derives from the suite ``seed``, so ``build_suite(name, seed)``
is a pure function: same name and seed, same plans, same verdicts.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults.plan import (
    ConsumerDisconnect,
    FaultPlan,
    JournalCorrupt,
    JournalTruncate,
    SlowConsumer,
)
from repro.faults.soak import verdict_ok
from repro.obs.recorder import FlightRecorder
from repro.sanitize import Sanitizer, use_sanitizer
from repro.serve.api import ServeServer
from repro.serve.scheduler import SchedulerConfig, SessionScheduler
from repro.serve.session import (
    ScenarioSpec,
    Session,
    SessionState,
    flight_signature,
)
from repro.serve.store import SessionStore
from repro.serve.wire import http_json, read_response_headers
from repro.util.logging import get_logger

__all__ = [
    "FLEET_SUITES",
    "CampaignConfig",
    "CampaignReport",
    "build_suite",
    "format_campaign_report",
    "run_campaign",
]

log = get_logger("faults.fleet")

FLEET_SUITES = ("fleet-quick", "fleet-full")

#: every fleet session runs this scenario
_MACHINE = "bgl-256"
_WORKLOAD = "synthetic"
_STRATEGY = "diffusion"
#: scheduler knobs: the step timeout sits below the suites' stalls so a
#: stall takes the timeout-retry path, with retries to spare
_STEP_TIMEOUT = 0.25
_MAX_STEP_RETRIES = 10
_BACKOFF_SCALE = 0.005
#: fleet-progress poll cadence (also the quiescence / settle poll)
_POLL = 0.005
#: fleet-progress polls before the campaign declares the fleet stuck
_MAX_POLL_ROUNDS = 12_000


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: a fleet geometry plus the plan to throw at it."""

    name: str
    plan: FaultPlan = field(default_factory=FaultPlan)
    seed: int = 0
    sessions: int = 6
    steps: int = 5
    workers: int = 3
    use_http: bool = False

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.plan.last_step >= 0:  # last_step sees the machine layer only
            raise ValueError(
                "a fleet campaign plays service-layer faults only; "
                "machine-layer faults belong to run_soak"
            )
        for fault in self.plan.stalls() + self.plan.kills():
            if fault.session_index >= self.sessions:
                raise ValueError(
                    f"{type(fault).__name__} targets session "
                    f"#{fault.session_index} of a {self.sessions}-session fleet"
                )
            if fault.at_step >= self.steps:
                raise ValueError(
                    f"{type(fault).__name__} at step {fault.at_step} can never "
                    f"land in a {self.steps}-step scenario"
                )
        for consumer in self.plan.consumers():
            if consumer.session_index >= self.sessions:
                raise ValueError(
                    f"consumer fault targets session #{consumer.session_index} "
                    f"of a {self.sessions}-session fleet"
                )
        if self.plan.consumers() and not self.use_http:
            raise ValueError("consumer faults need use_http=True")
        if self.plan.journal_fault() is not None and self.use_http:
            raise ValueError(
                "journal campaigns restart the store mid-run; the HTTP front "
                "end cannot follow — run them without use_http"
            )
        if self.plan.journal_fault() is not None and (
            self.plan.worker_crashes() or self.plan.kills()
        ):
            # injected faults are not journaled, so a post-restart replay
            # of a crashed/killed fleet could not match its twins
            raise ValueError(
                "journal campaigns cannot also crash workers or kill sessions"
            )

    def specs(self) -> list[ScenarioSpec]:
        """The fleet's scenario specs — index ``i`` is session ``s{i:05d}``."""
        return [
            ScenarioSpec(
                workload=_WORKLOAD,
                seed=self.seed * 100_003 + i,
                steps=self.steps,
                machine=_MACHINE,
                strategy=_STRATEGY,
                priority=i % 2,
            )
            for i in range(self.sessions)
        ]


@dataclass
class CampaignReport:
    """What one campaign did and whether the fleet held up.

    Every field up to (and including) the expectation flags is fully
    determined by ``(plan, seed)`` and belongs to :meth:`verdict`;
    timing-dependent observations live only in :meth:`to_dict` under
    ``diagnostics``.
    """

    name: str
    seed: int
    sessions: int
    steps: int
    n_faults: int
    # -- plan-determined fault accounting
    worker_crashes: int = 0
    worker_restarts: int = 0
    stalls_scheduled: int = 0
    kills_scheduled: int = 0
    consumers_slow: int = 0
    consumers_disconnected: int = 0
    consumer_lines: int = 0
    consumer_errors: int = 0
    # -- fleet outcome
    sessions_done: int = 0
    sessions_failed: int = 0
    sessions_stuck: int = 0
    signatures_checked: int = 0
    signature_matches: int = 0
    # -- journal phase (-1 = campaign had no journal fault)
    journal_skipped_lines: int = -1
    corruption_detected: int = 0
    journal_records: int = 0
    # -- drain discipline (HTTP campaigns)
    drained: int = 0
    shed_after_drain: int = 0
    # -- conservation
    sanitizer_armed: int = 0
    sanitizer_violations: int = 0
    invariant_violations: int = 0
    # -- what the plan says must have happened
    truncation_expected: int = 0
    corruption_expected: int = 0
    drain_expected: int = 0
    # -- diagnostics (timing-dependent; never in the verdict)
    step_timeouts: int = 0
    recovered_sessions: int = 0
    sanitizer_checks: int = 0
    flight: FlightRecorder = field(
        default_factory=lambda: FlightRecorder(capacity=512), repr=False
    )

    @property
    def signature_ok(self) -> bool:
        """Every checked survivor matched its unperturbed twin bit-for-bit."""
        return self.signature_matches == self.signatures_checked

    @property
    def ok(self) -> bool:
        checks = [
            verdict_ok(
                sanitizer_armed=self.sanitizer_armed == 1,
                sanitizer_violations=self.sanitizer_violations,
                invariant_violations=self.invariant_violations,
                data_intact=self.signature_ok,
            ),
            self.sessions_stuck == 0,
            self.sessions_failed == self.kills_scheduled,
            self.sessions_done == self.sessions - self.kills_scheduled,
            self.worker_restarts == self.worker_crashes,
            self.consumer_errors == 0,
        ]
        if self.truncation_expected:
            checks.append(self.journal_skipped_lines == 1)
        if self.corruption_expected:
            checks.append(self.corruption_detected == 1)
        if self.drain_expected:
            checks.append(self.drained == 1 and self.shed_after_drain == 1)
        return all(checks)

    def verdict(self) -> dict[str, object]:
        """The deterministic outcome: identical across reruns of (plan, seed)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "sessions": self.sessions,
            "steps": self.steps,
            "n_faults": self.n_faults,
            "worker_crashes": self.worker_crashes,
            "worker_restarts": self.worker_restarts,
            "stalls_scheduled": self.stalls_scheduled,
            "kills_scheduled": self.kills_scheduled,
            "consumers_slow": self.consumers_slow,
            "consumers_disconnected": self.consumers_disconnected,
            "consumer_lines": self.consumer_lines,
            "consumer_errors": self.consumer_errors,
            "sessions_done": self.sessions_done,
            "sessions_failed": self.sessions_failed,
            "sessions_stuck": self.sessions_stuck,
            "signature_ok": self.signature_ok,
            "journal_skipped_lines": self.journal_skipped_lines,
            "corruption_detected": self.corruption_detected,
            "journal_records": self.journal_records,
            "drained": self.drained,
            "shed_after_drain": self.shed_after_drain,
            "sanitizer_armed": self.sanitizer_armed,
            "sanitizer_violations": self.sanitizer_violations,
            "invariant_violations": self.invariant_violations,
            "truncation_expected": self.truncation_expected,
            "corruption_expected": self.corruption_expected,
            "drain_expected": self.drain_expected,
            "ok": self.ok,
        }

    def to_dict(self) -> dict[str, object]:
        out = self.verdict()
        out["diagnostics"] = {
            "step_timeouts": self.step_timeouts,
            "recovered_sessions": self.recovered_sessions,
            "signatures_checked": self.signatures_checked,
            "signature_matches": self.signature_matches,
            "sanitizer_checks": self.sanitizer_checks,
        }
        return out


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Play one campaign end to end and return its report.

    The whole campaign — twins included — runs under one ambient
    :class:`~repro.sanitize.Sanitizer`, so every adaptation point of
    every phase is conservation-checked; a campaign whose sanitizer
    never fired is itself a failed campaign (``sanitizer_armed``).  A
    journal campaign keeps its journal in a temporary directory that
    lives exactly as long as the campaign.
    """
    plan = config.plan
    report = CampaignReport(
        name=config.name,
        seed=config.seed,
        sessions=config.sessions,
        steps=config.steps,
        n_faults=plan.n_faults,
        truncation_expected=int(isinstance(plan.journal_fault(), JournalTruncate)),
        corruption_expected=int(isinstance(plan.journal_fault(), JournalCorrupt)),
        drain_expected=int(config.use_http),
    )
    sanitizer = Sanitizer()
    with (
        use_sanitizer(sanitizer),
        tempfile.TemporaryDirectory(prefix="repro-faults-") as scratch,
    ):
        twin_sigs = _run_twins(config, report)
        asyncio.run(_run_fleet(config, report, twin_sigs, Path(scratch)))
    report.sanitizer_armed = int(sanitizer.total_checks() > 0)
    report.sanitizer_violations = len(sanitizer.violations)
    report.sanitizer_checks = sanitizer.total_checks()
    report.flight.emit(
        "chaos.verdict",
        campaign=config.name,
        ok=int(report.ok),
        stuck=report.sessions_stuck,
        signature_ok=int(report.signature_ok),
    )
    return report


# -- phase 1: twins --------------------------------------------------------


def _run_twins(
    config: CampaignConfig, report: CampaignReport
) -> dict[int, list[tuple[str, tuple[tuple[str, object], ...]]]]:
    """Sequential, unperturbed runs of every session the plan lets survive."""
    report.flight.emit("chaos.phase", phase="twins", campaign=config.name)
    killed = {k.session_index for k in config.plan.kills()}
    signatures: dict[int, list[tuple[str, tuple[tuple[str, object], ...]]]] = {}
    for index, spec in enumerate(config.specs()):
        if index in killed:
            continue
        twin = Session(f"twin-{index:03d}", spec)
        twin.run_to_completion()
        signatures[index] = flight_signature(twin.events())
    return signatures


# -- phases 2-4: the fleet -------------------------------------------------


async def _run_fleet(
    config: CampaignConfig,
    report: CampaignReport,
    twin_sigs: dict[int, list[tuple[str, tuple[tuple[str, object], ...]]]],
    scratch: Path,
) -> None:
    plan = config.plan
    flight = report.flight
    flight.emit("chaos.phase", phase="fleet", campaign=config.name)

    journal_fault = plan.journal_fault()
    journal_path = (
        scratch / f"{config.name}-journal.jsonl" if journal_fault is not None else None
    )

    store = SessionStore(
        capacity=config.sessions + 4, journal_path=journal_path
    )
    sched_config = SchedulerConfig(
        workers=config.workers,
        step_timeout=_STEP_TIMEOUT,
        max_step_retries=_MAX_STEP_RETRIES,
        backoff_scale=_BACKOFF_SCALE,
        health_window=8,
        shed_when_degraded=True,
    )
    scheduler = SessionScheduler(store, sched_config)
    fleet = [store.create(spec) for spec in config.specs()]

    # pre-schedule session-anchored faults: they land at the planned step
    # of the target session no matter how the event loop interleaves
    for stall in plan.stalls():
        fleet[stall.session_index].stall_step(stall.seconds, at_step=stall.at_step)
        report.stalls_scheduled += 1
        flight.emit(
            "chaos.fault",
            fault="step.stall",
            session=stall.session_index,
            step=stall.at_step,
            seconds=stall.seconds,
        )
    for kill in plan.kills():
        fleet[kill.session_index].inject_fault(rank=kill.rank, at_step=kill.at_step)
        report.kills_scheduled += 1
        flight.emit(
            "chaos.fault",
            fault="session.kill",
            session=kill.session_index,
            step=kill.at_step,
            rank=kill.rank,
        )

    server: ServeServer | None = None
    consumer_tasks: list[asyncio.Task[int]] = []
    release_consumers = asyncio.Event()
    if config.use_http:
        server = ServeServer(store, scheduler)
        await server.start()
        for n, consumer in enumerate(plan.consumers()):
            sid = fleet[consumer.session_index].session_id
            slow = isinstance(consumer, SlowConsumer)
            limit = consumer.read_limit if slow else consumer.after_lines
            if slow:
                report.consumers_slow += 1
            else:
                report.consumers_disconnected += 1
            consumer_tasks.append(
                asyncio.create_task(
                    _consumer_client(
                        server.host,
                        server.port,
                        sid,
                        limit,
                        hold_until=release_consumers if slow else None,
                    ),
                    name=f"fleet-consumer-{n}",
                )
            )
            flight.emit(
                "chaos.fault",
                fault="consumer.slow" if slow else "consumer.disconnect",
                session=consumer.session_index,
                lines=limit,
            )
    else:
        await scheduler.start()
    scheduler.submit_all_pending()

    stop_at = journal_fault.at_step if journal_fault is not None else None
    outcome = await _drive(config, report, scheduler, fleet, stop_at)

    final_store = store
    if outcome == "stopped":
        assert journal_fault is not None and journal_path is not None
        final_store, scheduler = await _restart_from_journal(
            config, report, scheduler, fleet, journal_fault, journal_path
        )
        fleet = [
            final_store.get(f"s{index:05d}") for index in range(config.sessions)
        ]
    else:
        # let the supervisor finish restarting after any tail-end crash
        await _settle_restarts(config, report, scheduler)

    # drain discipline: intake off, in-flight finished, then provably shut
    if server is not None:
        report.drained = int(await _check_drain(server))
        report.shed_after_drain = int(await _check_shed(server))
        release_consumers.set()
        for task in consumer_tasks:
            try:
                report.consumer_lines += await task
            except (OSError, RuntimeError, asyncio.IncompleteReadError) as exc:
                report.consumer_errors += 1
                log.warning("consumer client failed: %s", exc)
        await server.stop()
    else:
        await scheduler.stop()
    await _quiesce(config, fleet)

    report.worker_restarts = scheduler.worker_restarts
    report.step_timeouts += scheduler.step_timeouts

    if journal_path is not None:
        report.journal_records = final_store.compact()

    flight.emit("chaos.phase", phase="verdict", campaign=config.name)
    for index, session in enumerate(fleet):
        if session.state is SessionState.DONE:
            report.sessions_done += 1
        elif session.state is SessionState.FAILED:
            report.sessions_failed += 1
        else:
            report.sessions_stuck += 1
            log.error(
                "session %s stuck in %s at step %d",
                session.session_id,
                session.state.value,
                session.steps_completed,
            )
        if session.recovered:
            report.recovered_sessions += 1
        report.invariant_violations += session.check_invariants()
        if (
            index in twin_sigs
            and session.state is SessionState.DONE
            and session.flight.total_emitted > 0
        ):
            # recovered-terminal sessions carry no flight log (only the
            # journaled outcome survives a restart) — every session that
            # actually ran in this process is held to its twin
            report.signatures_checked += 1
            if flight_signature(session.events()) == twin_sigs[index]:
                report.signature_matches += 1
            else:
                log.error(
                    "session %s diverged from its unperturbed twin",
                    session.session_id,
                )


async def _drive(
    config: CampaignConfig,
    report: CampaignReport,
    scheduler: SessionScheduler,
    fleet: list[Session],
    stop_at: int | None,
) -> str:
    """Poll fleet progress, firing worker crashes; returns how it ended."""
    pending_crashes = list(config.plan.worker_crashes())
    for _ in range(_MAX_POLL_ROUNDS):
        total = sum(session.steps_completed for session in fleet)
        while pending_crashes and total >= pending_crashes[0].at_step:
            crash = pending_crashes.pop(0)
            name = scheduler.crash_worker(crash.worker)
            report.worker_crashes += 1
            report.flight.emit(
                "chaos.fault",
                fault="worker.crash",
                worker=crash.worker,
                task=name,
                fleet_step=total,
            )
            log.info("crashed %s at fleet step %d", name, total)
        if stop_at is not None and total >= stop_at:
            return "stopped"
        if all(session.terminal for session in fleet):
            return "complete"
        await asyncio.sleep(_POLL)
    log.error("campaign %s: fleet made no progress to completion", config.name)
    return "stuck"


async def _settle_restarts(
    config: CampaignConfig, report: CampaignReport, scheduler: SessionScheduler
) -> None:
    """Wait for the supervisor to finish restarting every crashed worker."""
    for _ in range(_MAX_POLL_ROUNDS):
        if scheduler.worker_restarts >= report.worker_crashes:
            return
        await asyncio.sleep(_POLL)
    log.error(
        "campaign %s: only %d of %d crashed workers restarted",
        config.name,
        scheduler.worker_restarts,
        report.worker_crashes,
    )


async def _quiesce(config: CampaignConfig, fleet: list[Session]) -> None:
    """Wait until no orphaned ``to_thread`` step holds a session lock."""
    for _ in range(_MAX_POLL_ROUNDS):
        if not any(session.busy for session in fleet):
            return
        await asyncio.sleep(_POLL)
    log.error("campaign %s: a session step never released its lock", config.name)


# -- phase 3: journal damage + restart -------------------------------------


async def _restart_from_journal(
    config: CampaignConfig,
    report: CampaignReport,
    scheduler: SessionScheduler,
    fleet: list[Session],
    journal_fault: JournalTruncate | JournalCorrupt,
    journal_path: Path,
) -> tuple[SessionStore, SessionScheduler]:
    """Hard-stop the fleet, damage the journal as planned, recover, re-drive."""
    report.flight.emit(
        "chaos.phase", phase="restart", campaign=config.name
    )
    await scheduler.stop()  # crash-like: queued work is simply dropped
    await _quiesce(config, fleet)  # orphaned steps finish their journal appends

    _damage_journal(journal_path, journal_fault)
    try:
        store = SessionStore.recover(journal_path, capacity=config.sessions + 4)
    except ValueError as exc:
        # mid-file corruption: recovery refuses to guess, the operator
        # (here: the harness) truncates at the poisoned line and retries
        report.corruption_detected = 1
        log.warning("recovery refused the damaged journal: %s", exc)
        _truncate_at_line(journal_path, journal_fault.line)
        store = SessionStore.recover(journal_path, capacity=config.sessions + 4)
    report.journal_skipped_lines = store.journal_skipped_lines

    # sessions whose create records died with the damaged suffix are
    # resubmitted from their specs under their original ids
    for index, spec in enumerate(config.specs()):
        sid = f"s{index:05d}"
        if sid not in store:
            store.create(spec, session_id=sid)
            log.info("re-created session %s lost to journal damage", sid)

    fresh = SessionScheduler(store, scheduler.config)
    await fresh.start()
    fresh.submit_all_pending()
    restarted_fleet = [
        store.get(f"s{index:05d}") for index in range(config.sessions)
    ]
    await _drive(config, report, fresh, restarted_fleet, stop_at=None)
    return store, fresh


def _damage_journal(
    path: Path, fault: JournalTruncate | JournalCorrupt
) -> None:
    if isinstance(fault, JournalTruncate):
        data = path.read_bytes()
        path.write_bytes(data[: max(0, len(data) - fault.nbytes)])
        return
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    index = _poison_index(lines, fault.line)
    lines[index] = '{"op": "state", "id": "s000\n'  # half a record, mid-file
    path.write_text("".join(lines), encoding="utf-8")


def _truncate_at_line(path: Path, line: int) -> None:
    """Repair a poisoned journal: drop the bad line and everything after."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    index = _poison_index(lines, line)
    path.write_text("".join(lines[:index]), encoding="utf-8")


def _poison_index(lines: list[str], line: int) -> int:
    """The 0-based line to poison: as planned, but never the last line.

    Damage on the final line would be indistinguishable from a crash
    mid-append; a corruption campaign needs a good record *after* the
    bad one so recovery's refusal is exercised.
    """
    return max(0, min(line - 1, len(lines) - 2))


# -- phase 2 extras: drain discipline + edge consumers ---------------------


async def _check_drain(server: ServeServer) -> bool:
    """POST /drain, then confirm /healthz reports draining with a 503."""
    status, body = await http_json(server.host, server.port, "POST", "/drain")
    if status != 200:
        log.error("POST /drain returned %d: %r", status, body)
        return False
    hstatus, health = await http_json(server.host, server.port, "GET", "/healthz")
    return hstatus == 503 and health.get("status") == "draining"


async def _check_shed(server: ServeServer) -> bool:
    """A post-drain submission must shed: 503 plus a Retry-After header."""
    payload = json.dumps({"workload": "synthetic", "steps": 1}).encode()
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        head = (
            f"POST /sessions HTTP/1.1\r\n"
            f"Host: {server.host}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + payload)
        await writer.drain()
        status, headers, _body = await read_response_headers(reader)
    finally:
        writer.close()
        await writer.wait_closed()
    return status == 503 and "retry-after" in headers


async def _consumer_client(
    host: str,
    port: int,
    session_id: str,
    limit: int,
    hold_until: asyncio.Event | None,
) -> int:
    """One NDJSON ``/events`` client: read ``limit`` lines, then misbehave.

    With ``hold_until`` the client goes silent but keeps the connection
    open (slow consumer) until the event fires; without it the client
    closes abruptly mid-stream (disconnect).  Returns lines read.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"GET /sessions/{session_id}/events HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()
        status_line = (await reader.readline()).decode("latin-1")
        if " 200 " not in status_line:
            raise RuntimeError(f"event stream rejected: {status_line.strip()!r}")
        while (await reader.readline()).strip():  # drain response headers
            continue
        got = 0
        while got < limit:
            line = await reader.readline()
            if not line:
                break
            if line.strip():
                got += 1
        if hold_until is not None:
            await hold_until.wait()
        return got
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError) as exc:
            log.debug("consumer close raced the server: %s", exc)


# -- named suites ------------------------------------------------------------


def build_suite(name: str, seed: int = 0) -> list[CampaignConfig]:
    """The campaign list of a named suite, fully derived from ``seed``."""
    if name not in FLEET_SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {FLEET_SUITES}")
    quick = [
        CampaignConfig(
            name="worker-crash",
            seed=seed,
            sessions=6,
            steps=5,
            workers=3,
            plan=FaultPlan.seeded_fleet(
                seed,
                n_sessions=6,
                n_steps=5,
                workers=3,
                n_worker_crashes=2,
                n_stalls=1,
                n_kills=1,
                stall_seconds=0.5,
            ),
        ),
        CampaignConfig(
            name="journal-truncate",
            seed=seed + 1,
            sessions=4,
            steps=4,
            workers=2,
            plan=FaultPlan.seeded_fleet(
                seed + 1,
                n_sessions=4,
                n_steps=4,
                workers=2,
                n_worker_crashes=0,
                n_stalls=0,
                n_kills=0,
                journal="truncate",
            ),
        ),
    ]
    if name == "fleet-quick":
        return quick
    return quick + [
        CampaignConfig(
            name="consumer-churn",
            seed=seed + 2,
            sessions=5,
            steps=4,
            workers=2,
            use_http=True,
            plan=FaultPlan(
                faults=(
                    SlowConsumer(session_index=1),
                    SlowConsumer(session_index=2, read_limit=3),
                    ConsumerDisconnect(session_index=3),
                    ConsumerDisconnect(session_index=4, after_lines=1),
                )
            ),
        ),
        CampaignConfig(
            name="journal-corrupt",
            seed=seed + 3,
            sessions=4,
            steps=4,
            workers=2,
            plan=FaultPlan.seeded_fleet(
                seed + 3,
                n_sessions=4,
                n_steps=4,
                workers=2,
                n_worker_crashes=0,
                n_stalls=0,
                n_kills=0,
                journal="corrupt",
            ),
        ),
    ]


def format_campaign_report(report: CampaignReport) -> str:
    """A compact human-readable verdict block for the CLI."""
    flag = "PASS" if report.ok else "FAIL"
    lines = [
        f"campaign {report.name!r} (seed {report.seed}) — {flag}",
        (
            f"  fleet     : {report.sessions} session(s) x {report.steps} "
            f"step(s); done={report.sessions_done} "
            f"failed={report.sessions_failed} stuck={report.sessions_stuck}"
        ),
        (
            f"  faults    : {report.n_faults} planned; "
            f"worker crashes {report.worker_crashes} "
            f"(restarts {report.worker_restarts}), "
            f"stalls {report.stalls_scheduled}, kills {report.kills_scheduled}"
        ),
        (
            f"  signatures: {report.signature_matches}/"
            f"{report.signatures_checked} bit-identical to twins "
            f"({'ok' if report.signature_ok else 'DIVERGED'})"
        ),
        (
            f"  sanitizer : armed={bool(report.sanitizer_armed)} "
            f"checks={report.sanitizer_checks} "
            f"violations={report.sanitizer_violations}; "
            f"invariant violations={report.invariant_violations}"
        ),
    ]
    if report.consumers_slow or report.consumers_disconnected:
        lines.append(
            f"  consumers : {report.consumers_slow} slow + "
            f"{report.consumers_disconnected} disconnecting; "
            f"{report.consumer_lines} line(s) read, "
            f"{report.consumer_errors} error(s)"
        )
    if report.drain_expected:
        lines.append(
            f"  drain     : drained={bool(report.drained)} "
            f"post-drain shed={bool(report.shed_after_drain)}"
        )
    if report.journal_skipped_lines >= 0:
        lines.append(
            f"  journal   : skipped {report.journal_skipped_lines} "
            f"truncated line(s), corruption detected="
            f"{bool(report.corruption_detected)}, "
            f"compacted to {report.journal_records} record(s)"
        )
    return "\n".join(lines)
