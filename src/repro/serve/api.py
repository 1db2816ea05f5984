"""A plain-stdlib asyncio HTTP front end for the serving tier.

No web framework — requests are parsed straight off the stream with
``asyncio.start_server`` (one short-lived connection per request,
``Connection: close``), which keeps the service dependency-free and the
whole protocol surface inspectable in one file.  The wire dialect (and
the minimal async client) is shared with the mission-control UI server
through :mod:`repro.serve.wire`.

Routes
------

=======  ==============================  ======================================
Method   Path                            Meaning
=======  ==============================  ======================================
POST     ``/sessions``                   submit a scenario spec; 201 + snapshot
GET      ``/sessions``                   list session snapshots
GET      ``/sessions/{id}``              one session's snapshot
GET      ``/sessions/{id}/events``       NDJSON stream of flight events
POST     ``/sessions/{id}/kill``         inject a rank crash (fails the session)
POST     ``/sessions/{id}/pause``        pause a running session
POST     ``/sessions/{id}/resume``       resume and requeue a paused session
POST     ``/drain``                      graceful shutdown: stop intake, finish
                                         running steps, compact the journal
GET      ``/healthz``                    200 ok / 503 degraded or draining
                                         (liveness window + drain flag)
GET      ``/metrics``                    Prometheus text exposition of the whole
                                         service (``?format=json`` for the raw
                                         counter dict)
=======  ==============================  ======================================

Admission control: ``POST /sessions`` sheds with ``503`` + a
``Retry-After`` header while the service is degraded, draining, or the
scheduler queue sits above the configured high-water mark — a struggling
service says "later" at the door instead of queueing work it cannot
digest (counted in ``repro_serve_shed_total``).

The events stream is the one live channel of a session's flight ring:
each client keeps its own seq cursor, polls the ring and writes each
new event as one JSON line, ending the response (and closing the
connection) once the session is terminal and every retained event has
been delivered.  The ring is the bounded buffer every client shares: a
stalled consumer blocks only its own coroutine (TCP backpressure on one
connection), and when it falls behind the ring's capacity the stream
inserts a ``stream.gap`` flight event whose ``data.lost`` counts the
events it missed — loss is counted, never silent.

``/metrics`` renders through :mod:`repro.obs.aggregate`: service-level
gauges (sessions by state, queue depth, lane submissions) plus the
fleet rollup of every stored session's recorder (span digests, counters
with the decision counts, ring totals) and ledger — scrapeable by a
stock Prometheus, validated by
:func:`repro.obs.aggregate.parse_prometheus` in the tests.
"""

from __future__ import annotations

import asyncio
from collections.abc import Sequence

from repro.obs import (
    FlightEvent,
    PromMetric,
    PromSample,
    aggregate_fleet,
    fleet_metrics,
    render_prometheus,
)
from repro.serve.scheduler import SessionScheduler
from repro.serve.session import ScenarioSpec, Session, SessionError
from repro.serve.store import SessionStore, StoreFull
from repro.serve.wire import (
    HTTPError,
    http_json,
    http_stream_lines,
    parse_json,
    read_request,
    send_json,
    send_text,
)
from repro.util.logging import get_logger

__all__ = ["ServeServer", "http_json", "http_stream_lines", "serve_metrics"]

log = get_logger("serve.api")

#: how often the event stream re-checks the flight ring (seconds)
_STREAM_POLL = 0.02

#: the content type Prometheus scrapers expect from a /metrics endpoint
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def serve_metrics(
    store: SessionStore, scheduler: SessionScheduler
) -> list[PromMetric]:
    """Every metric family of one store + scheduler pair.

    Service-level families under ``repro_serve_*`` plus the
    ``repro_fleet_*`` rollup of all stored sessions' telemetry.
    """
    sessions: Sequence[Session] = store.sessions()
    health = scheduler.health
    recent_failures = health.snapshot()["recent_failures"]
    assert isinstance(recent_failures, int)

    def single(name: str, kind: str, help_text: str, value: float) -> PromMetric:
        return PromMetric(
            name=name, kind=kind, help=help_text, samples=(PromSample(value=value),)
        )

    metrics = [
        PromMetric(
            name="repro_serve_sessions",
            kind="gauge",
            help="Stored sessions by lifecycle state.",
            samples=tuple(
                PromSample(value=float(n), labels=(("state", state),))
                for state, n in sorted(store.counts().items())
            ),
        ),
        single(
            "repro_serve_sessions_evicted_total",
            "counter",
            "Finished sessions evicted to make room.",
            float(store.evicted),
        ),
        single(
            "repro_serve_queue_depth",
            "gauge",
            "Scheduler queue entries waiting for a worker.",
            float(scheduler.queue_depth),
        ),
        PromMetric(
            name="repro_serve_submitted_total",
            kind="counter",
            help="Queue submissions by scheduling lane.",
            samples=tuple(
                PromSample(value=float(n), labels=(("lane", lane),))
                for lane, n in sorted(scheduler.lane_submitted.items())
            ),
        ),
        single(
            "repro_serve_steps_total",
            "counter",
            "Adaptation points run to completion by the worker pool.",
            float(scheduler.steps_run),
        ),
        single(
            "repro_serve_steps_failed_total",
            "counter",
            "Adaptation points that failed or timed out.",
            float(health.steps_failed),
        ),
        single(
            "repro_serve_health_degraded",
            "gauge",
            "1 while a failure sits in the liveness window, else 0.",
            1.0 if health.degraded else 0.0,
        ),
        single(
            "repro_serve_recent_failures",
            "gauge",
            "Failures currently inside the liveness window.",
            float(recent_failures),
        ),
        single(
            "repro_serve_shed_total",
            "counter",
            "Session submissions rejected by admission control (503).",
            float(scheduler.shed_total),
        ),
        single(
            "repro_serve_worker_restarts_total",
            "counter",
            "Crashed workers restarted by the supervisor.",
            float(scheduler.worker_restarts),
        ),
        single(
            "repro_serve_step_timeouts_total",
            "counter",
            "Adaptation points that exceeded the step timeout (incl. retries).",
            float(scheduler.step_timeouts),
        ),
        single(
            "repro_serve_draining",
            "gauge",
            "1 once a drain began (intake off), else 0.",
            1.0 if scheduler.draining else 0.0,
        ),
    ]
    rollup = aggregate_fleet(
        recorders=[s.recorder for s in sessions],
        ledgers=[s.ledger for s in sessions],
    )
    metrics.extend(fleet_metrics(rollup))
    return metrics


class ServeServer:
    """The HTTP front end over one store + scheduler pair."""

    def __init__(
        self,
        store: SessionStore,
        scheduler: SessionScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.store = store
        self.scheduler = scheduler
        self.host = host
        self.port = port  # 0 = ephemeral; the real port appears after start()
        self._server: asyncio.Server | None = None

    async def start(self) -> None:
        """Bind the socket and spawn the scheduler's worker pool."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        sockets = self._server.sockets
        assert sockets
        self.port = sockets[0].getsockname()[1]
        await self.scheduler.start()
        log.info("serving on http://%s:%d", self.host, self.port)

    async def stop(self) -> None:
        """Stop accepting connections and cancel the workers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()

    # -- connection handling ---------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, query, body = await read_request(reader)
            await self._route(method, path, query, body, writer)
        except HTTPError as exc:
            await send_json(
                writer, exc.status, {"error": exc.message}, headers=exc.headers
            )
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            log.debug("client connection dropped: %s", exc)
        except Exception:
            log.exception("request handling failed")
            try:
                await send_json(writer, 500, {"error": "internal error"})
            except ConnectionError as exc:
                log.debug("could not deliver 500: %s", exc)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError as exc:
                log.debug("connection close raced the client: %s", exc)

    async def _route(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            snap = self.store.counts()
            health = self.scheduler.health.snapshot()
            health["sessions"] = snap
            health["flight"] = self._flight_totals()
            if self.scheduler.draining:
                # draining outranks degraded: the service is leaving on
                # purpose, not struggling — load balancers treat both as
                # "stop sending traffic" but operators must not page on it
                health["status"] = "draining"
            status = (
                503
                if (self.scheduler.draining or self.scheduler.health.degraded)
                else 200
            )
            await send_json(writer, status, health)
            return
        if path == "/drain" and method == "POST":
            await self._drain(writer)
            return
        if path == "/metrics" and method == "GET":
            if query.get("format") == "json":
                await send_json(writer, 200, self._metrics())
            else:
                text = render_prometheus(serve_metrics(self.store, self.scheduler))
                await send_text(
                    writer, 200, text, content_type=PROMETHEUS_CONTENT_TYPE
                )
            return
        if parts and parts[0] == "sessions":
            await self._route_sessions(method, parts, body, writer)
            return
        raise HTTPError(404, f"no such route: {method} {path}")

    async def _route_sessions(
        self, method: str, parts: list[str], body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        if len(parts) == 1:
            if method == "POST":
                await self._create_session(body, writer)
            elif method == "GET":
                snaps = [s.snapshot() for s in self.store.sessions()]
                await send_json(writer, 200, {"sessions": snaps})
            else:
                raise HTTPError(405, f"{method} not allowed on /sessions")
            return
        session = self._lookup(parts[1])
        if len(parts) == 2:
            if method != "GET":
                raise HTTPError(405, f"{method} not allowed on a session")
            await send_json(writer, 200, session.snapshot())
            return
        if len(parts) == 3:
            await self._session_action(method, parts[2], session, body, writer)
            return
        raise HTTPError(404, "no such route")

    async def _session_action(
        self,
        method: str,
        action: str,
        session: Session,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if action == "events" and method == "GET":
            await self._stream_events(session, writer)
            return
        if method != "POST":
            raise HTTPError(405, f"{method} not allowed on {action}")
        if action == "kill":
            payload = parse_json(body) if body else {}
            rank = payload.get("rank", 0)
            if not isinstance(rank, int) or isinstance(rank, bool):
                raise HTTPError(400, "rank must be an int")
            try:
                step = session.inject_fault(rank=rank)
            except SessionError as exc:
                raise HTTPError(409, str(exc)) from exc
            await send_json(
                writer, 200, {"id": session.session_id, "kill_at_step": step}
            )
            return
        if action == "pause":
            try:
                session.pause()
            except SessionError as exc:
                raise HTTPError(409, str(exc)) from exc
            await send_json(writer, 200, session.snapshot())
            return
        if action == "resume":
            try:
                session.resume()
            except SessionError as exc:
                raise HTTPError(409, str(exc)) from exc
            self.scheduler.submit(session)
            await send_json(writer, 200, session.snapshot())
            return
        raise HTTPError(404, f"no such action: {action}")

    # -- handlers ---------------------------------------------------------

    def _lookup(self, session_id: str) -> Session:
        try:
            return self.store.get(session_id)
        except KeyError as exc:
            raise HTTPError(404, str(exc)) from exc

    def _admission_reason(self) -> tuple[str, str] | None:
        """Why a new session must be shed right now: (reason, retry-after).

        Draining is permanent for this process (retry elsewhere, later);
        degraded and queue pressure are transient (retry here, soon).
        """
        scheduler = self.scheduler
        if scheduler.draining:
            return "service is draining; not accepting new sessions", "60"
        if scheduler.config.shed_when_degraded and scheduler.health.degraded:
            return "service is degraded; retry shortly", "1"
        if scheduler.queue_depth > scheduler.config.admission_high_water:
            return (
                f"scheduler queue above high-water mark "
                f"({scheduler.queue_depth} > "
                f"{scheduler.config.admission_high_water}); retry shortly",
                "1",
            )
        return None

    async def _create_session(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        shed = self._admission_reason()
        if shed is not None:
            reason, retry_after = shed
            self.scheduler.shed_total += 1
            log.warning("shedding session submission: %s", reason)
            raise HTTPError(
                503, reason, headers=(("Retry-After", retry_after),)
            )
        payload = parse_json(body) if body else {}
        try:
            spec = ScenarioSpec.from_dict(payload)
            session = self.store.create(spec)
        except ValueError as exc:
            raise HTTPError(400, str(exc)) from exc
        except StoreFull as exc:
            raise HTTPError(429, str(exc)) from exc
        self.scheduler.submit(session)
        await send_json(writer, 201, session.snapshot())

    async def _drain(self, writer: asyncio.StreamWriter) -> None:
        """Graceful shutdown: stop intake, finish steps, flush the journal.

        Idempotent — a second POST reports the already-drained state.
        The response only returns once the queue is empty and the journal
        is compacted, so callers can treat a 200 as "safe to kill the
        process".
        """
        already = self.scheduler.draining
        self.scheduler.begin_drain()
        await self.scheduler.drain()
        compacted = self.store.compact()
        await send_json(
            writer,
            200,
            {
                "status": "draining",
                "already_draining": already,
                "sessions": self.store.counts(),
                "journal_records": compacted,
            },
        )

    async def _stream_events(
        self, session: Session, writer: asyncio.StreamWriter
    ) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        next_seq = 0
        while True:
            fresh = session.events(since_seq=next_seq)
            if fresh and fresh[0].seq > next_seq:
                # the ring wrapped past this client (it stalled, or it
                # subscribed late): report the hole instead of hiding it,
                # as a flight event so a saved stream still loads
                gap = FlightEvent(
                    seq=next_seq,
                    t=fresh[0].t,
                    kind="stream.gap",
                    data={"lost": fresh[0].seq - next_seq},
                )
                writer.write(gap.to_json().encode() + b"\n")
            for event in fresh:
                writer.write(event.to_json().encode() + b"\n")
                next_seq = event.seq + 1
            if fresh:
                await writer.drain()
            if session.terminal and not session.events(since_seq=next_seq):
                return
            await asyncio.sleep(_STREAM_POLL)

    def _flight_totals(self) -> dict[str, int]:
        """Fleet-wide flight accounting — event loss must never be silent."""
        sessions = self.store.sessions()
        return {
            "events": sum(s.flight.total_emitted for s in sessions),
            "dropped": sum(s.flight.dropped for s in sessions),
        }

    def _metrics(self) -> dict[str, object]:
        return {
            "sessions": self.store.counts(),
            "stored": len(self.store),
            "evicted": self.store.evicted,
            "queue_depth": self.scheduler.queue_depth,
            "lanes": dict(self.scheduler.lane_submitted),
            "steps_run": self.scheduler.steps_run,
            "step_timeouts": self.scheduler.step_timeouts,
            "shed": self.scheduler.shed_total,
            "worker_restarts": self.scheduler.worker_restarts,
            "draining": self.scheduler.draining,
            "flight": self._flight_totals(),
            "health": self.scheduler.health.snapshot(),
        }
