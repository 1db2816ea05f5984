"""Seeded closed-loop load generator for the serving tier.

The generator submits a seeded fleet of scenarios (each session gets a
distinct derived seed, so runs are varied but exactly reproducible),
drives them all to a terminal state, and reports throughput
(sessions/sec, steps/sec) plus the decision-latency distribution —
the wall-clock cost of one adaptation point, merged from each
session's ``adaptation_point`` span digest.

Three drive modes share one entry point, :func:`run_loadgen`:

* **direct** (default) — store + scheduler in-process, no sockets.
  This is what the ``serve.*`` bench phases use: it measures the
  scheduling tier itself, free of HTTP noise.
* **via_http** — an in-process :class:`~repro.serve.api.ServeServer`
  on an ephemeral port, driven through real POST/GET requests.  The
  CI smoke job uses this: it exercises the full stack.
* **url** — an external server; submit and poll remotely (decision
  latencies are not available — the recorders live in the other
  process).

Wall-clock timing flows through a recorder span (rule R007: only
:mod:`repro.obs` reads clocks), so the loadgen's own measurement
machinery is the same one the rest of the library uses.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.obs.recorder import ADAPTATION_SPAN, FlightRecorder
from repro.obs.stats import PhaseStats, SpanDigest
from repro.serve.api import ServeServer, http_json
from repro.serve.scheduler import SchedulerConfig, SessionScheduler
from repro.serve.session import ScenarioSpec, SessionState
from repro.serve.store import SessionStore
from repro.util.logging import get_logger

__all__ = ["LoadgenConfig", "LoadgenResult", "run_loadgen"]

log = get_logger("serve.loadgen")

#: span name the loadgen times its whole run under
LOADGEN_SPAN = "loadgen.run"

#: how often the HTTP modes poll for completion (seconds)
_POLL_INTERVAL = 0.05
#: give up polling an external server after this many seconds
_POLL_TIMEOUT = 300.0
#: every Nth session of a campaign rides the priority lane
_PRIORITY_EVERY = 4


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation campaign (fully determined by its fields)."""

    sessions: int = 16
    steps: int = 6
    workers: int = 4
    seed: int = 0
    workload: str = "synthetic"
    machine: str = "bgl-256"
    strategy: str = "diffusion"
    via_http: bool = False
    url: str = ""  # "host:port" of an external server ("" = in-process)

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    def specs(self) -> list[ScenarioSpec]:
        """The seeded fleet: one spec per session, all derived from ``seed``."""
        out = []
        for i in range(self.sessions):
            priority = 1 if i % _PRIORITY_EVERY == 0 else 0
            out.append(
                ScenarioSpec(
                    workload=self.workload,
                    seed=self.seed * 100_003 + i,
                    steps=self.steps,
                    machine=self.machine,
                    strategy=self.strategy,
                    priority=priority,
                )
            )
        return out


@dataclass(frozen=True)
class LoadgenResult:
    """What one campaign measured."""

    sessions: int
    completed: int
    failed: int
    steps_total: int
    duration: float  # wall seconds for the whole campaign
    latency: PhaseStats | None  # decision latency (None when driven remotely)

    @property
    def sessions_per_sec(self) -> float:
        return self.sessions / self.duration if self.duration > 0 else 0.0

    @property
    def steps_per_sec(self) -> float:
        return self.steps_total / self.duration if self.duration > 0 else 0.0

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "sessions": self.sessions,
            "completed": self.completed,
            "failed": self.failed,
            "steps_total": self.steps_total,
            "duration_s": self.duration,
            "sessions_per_sec": self.sessions_per_sec,
            "steps_per_sec": self.steps_per_sec,
        }
        if self.latency is not None:
            out["decision_latency"] = self.latency.to_dict()
        return out


def run_loadgen(config: LoadgenConfig) -> LoadgenResult:
    """Run one campaign to completion and aggregate the numbers."""
    sched_cfg = SchedulerConfig(workers=config.workers)
    timer = FlightRecorder(capacity=2)
    if config.url:
        host, port = _parse_hostport(config.url)
        with timer.span(LOADGEN_SPAN):
            outcome = asyncio.run(_drive_remote(config, host, port))
        completed, failed, steps_total = outcome
        digests: list[SpanDigest] = []
    else:
        store = SessionStore(capacity=max(config.sessions, 1))
        with timer.span(LOADGEN_SPAN):
            if config.via_http:
                asyncio.run(_drive_via_http(config, store, sched_cfg))
            else:
                asyncio.run(_drive_direct(config, store, sched_cfg))
        completed = sum(
            1 for s in store.sessions() if s.state is SessionState.DONE
        )
        failed = sum(
            1 for s in store.sessions() if s.state is SessionState.FAILED
        )
        steps_total = sum(s.steps_completed for s in store.sessions())
        digests = [
            digest
            for s in store.sessions()
            if (digest := s.recorder.digests().get(ADAPTATION_SPAN)) is not None
        ]
    duration = timer.digests()[LOADGEN_SPAN].total
    result = LoadgenResult(
        sessions=config.sessions,
        completed=completed,
        failed=failed,
        steps_total=steps_total,
        duration=duration,
        latency=SpanDigest.merged(digests).stats() if digests else None,
    )
    log.info(
        "loadgen: %d sessions (%d done, %d failed) in %.2fs — %.1f sessions/s",
        result.sessions,
        result.completed,
        result.failed,
        result.duration,
        result.sessions_per_sec,
    )
    return result


async def _drive_direct(
    config: LoadgenConfig, store: SessionStore, sched_cfg: SchedulerConfig
) -> None:
    """Direct mode: create every session, then drain the scheduler."""
    scheduler = SessionScheduler(store, sched_cfg)
    for spec in config.specs():
        store.create(spec)
    await scheduler.run_until_drained()


async def _drive_via_http(
    config: LoadgenConfig, store: SessionStore, sched_cfg: SchedulerConfig
) -> None:
    """HTTP mode: in-process server on an ephemeral port, real requests."""
    scheduler = SessionScheduler(store, sched_cfg)
    server = ServeServer(store, scheduler)
    await server.start()
    try:
        for spec in config.specs():
            status, body = await http_json(
                server.host, server.port, "POST", "/sessions", spec.to_dict()
            )
            if status != 201:
                raise RuntimeError(f"session submit failed ({status}): {body}")
        await _poll_until_done(config, server.host, server.port)
    finally:
        await server.stop()


async def _drive_remote(
    config: LoadgenConfig, host: str, port: int
) -> tuple[int, int, int]:
    """External mode: submit and poll a server in another process."""
    for spec in config.specs():
        status, body = await http_json(host, port, "POST", "/sessions", spec.to_dict())
        if status != 201:
            raise RuntimeError(f"session submit failed ({status}): {body}")
    snaps = await _poll_until_done(config, host, port)
    completed = sum(1 for s in snaps if s.get("state") == "done")
    failed = sum(1 for s in snaps if s.get("state") == "failed")
    steps_total = sum(int(s.get("steps_completed", 0)) for s in snaps)
    return completed, failed, steps_total


async def _poll_until_done(
    config: LoadgenConfig, host: str, port: int
) -> list[dict[str, object]]:
    """Poll /sessions until every session is terminal; returns snapshots."""
    polls_left = max(1, int(_POLL_TIMEOUT / _POLL_INTERVAL))
    while True:
        status, body = await http_json(host, port, "GET", "/sessions")
        if status != 200:
            raise RuntimeError(f"session listing failed ({status}): {body}")
        snaps_raw = body.get("sessions", [])
        snaps = [s for s in snaps_raw if isinstance(s, dict)]
        if snaps and all(s.get("state") in ("done", "failed") for s in snaps):
            return snaps
        polls_left -= 1
        if polls_left <= 0:
            raise TimeoutError(
                f"sessions still running after {_POLL_TIMEOUT}s"
            )
        await asyncio.sleep(_POLL_INTERVAL)


def _parse_hostport(url: str) -> tuple[str, int]:
    """Accept ``host:port`` or ``http://host:port`` forms."""
    trimmed = url.removeprefix("http://").rstrip("/")
    host, sep, port = trimmed.partition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {url!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValueError(f"bad port in {url!r}") from exc
