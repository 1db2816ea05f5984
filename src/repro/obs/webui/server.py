"""The mission-control HTTP server: replay flight logs or follow a fleet.

Same plain-stdlib dialect as :mod:`repro.serve.api` (shared through
:mod:`repro.serve.wire`): one short-lived connection per request, JSON
and NDJSON responses, no framework.  Two exclusive modes:

**replay** — one or more exported flight JSONL files become read-only
pseudo-sessions (keyed by file stem).  The event stream dumps the whole
log and closes, and ``/api/metrics`` rolls the replayed logs up through
:func:`repro.obs.aggregate.aggregate_fleet`.

**attach** — proxies a live :mod:`repro.serve` fleet: the session list,
each session's NDJSON event stream (followed until terminal) and the
upstream Prometheus ``/metrics`` text pass through, so the same front
end renders a fleet while it runs.

In both modes ``/api/sessions/{id}/frames`` streams NDJSON, one frame
per adaptation point, folded by :class:`FrameFold` from the session's
events — the loaded log, or the upstream stream parsed line by line
with :func:`~repro.obs.flight.parse_flight_line`.  The page reads that
one endpoint and folds nothing itself.  A frame is finished only when
the next point starts (or the stream ends), so in attach mode the
newest point appears once the next one begins.

Routes
------

=======  ================================  ==================================
Method   Path                              Meaning
=======  ================================  ==================================
GET      ``/``                             the single-page UI (index.html)
GET      ``/static/{name}``                whitelisted static assets
GET      ``/healthz``                      mode and session count
GET      ``/api/sessions``                 session snapshots (replay or proxy)
GET      ``/api/sessions/{id}/events``     NDJSON flight events
GET      ``/api/sessions/{id}/frames``     NDJSON frames, one per point
GET      ``/api/metrics``                  Prometheus text exposition
=======  ================================  ==================================
"""

from __future__ import annotations

import asyncio
import functools
import json
import re
from collections.abc import AsyncIterator, Iterable, Sequence
from pathlib import Path

from repro.obs.aggregate import aggregate_fleet, fleet_metrics, render_prometheus
from repro.obs.flight import (
    FlightLog,
    load_flight_jsonl,
    parse_flight_line,
    replay_flight,
)
from repro.obs.recorder import ADAPTATION_SPAN, FlightEvent, TagValue
from repro.serve.wire import (
    HTTPError,
    http_json,
    http_stream_lines,
    http_text,
    send_json,
    send_text,
    serve_connection,
)
from repro.util.logging import get_logger

__all__ = ["KNOWN_EVENT_KINDS", "FrameFold", "ObsServer", "replay_frames"]

log = get_logger("obs.webui")

_STATIC_DIR = Path(__file__).parent / "static"
_STATIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
_CONTENT_TYPES = {
    ".html": "text/html; charset=utf-8",
    ".js": "text/javascript; charset=utf-8",
    ".css": "text/css; charset=utf-8",
    ".json": "application/json",
}

#: every decision-event kind the library emits today; the frame fold
#: must handle each one without an unknown-event fallback (tested).  Span
#: events (``<name>.start``/``<name>.end``) are known by their suffix.
KNOWN_EVENT_KINDS = frozenset(
    {
        "adapt.start",
        "adapt.end",
        "alloc.rect",
        "nest.insert",
        "nest.retain",
        "nest.delete",
        "tree.free",
        "tree.fill_slot",
        "tree.huffman_fill",
        "tree.pair_insert",
        "tree.prune_slot",
        "redist.round",
        "redist.retry",
        "redist.round_failed",
        "redist.round_timeout",
        "redist.recovered",
        "redist.aborted",
        "dynamic.choice",
        "link.heat",
        "ledger.skew",
        "fault.inject",
        "fault.detected",
        "recovery.start",
        "recovery.shrink",
        "recovery.drop_nest",
        "recovery.verified",
        "recovery.nest_rebuilt",
        "recovery.done",
        "sanitizer.violation",
        "session.state",
        "session.hibernate",
        "session.rematerialize",
        "stream.gap",
        "pda.partial",
        "soak.data_mismatch",
        "soak.invariant_violation",
        "chaos.phase",
        "chaos.fault",
        "chaos.verdict",
    }
)


#: the span event that closes a workload run's adaptation point
_ADAPTATION_END = ADAPTATION_SPAN + ".end"


def _as_int(data: dict[str, TagValue], key: str, default: int = 0) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return default
    return int(value)


def _as_float(data: dict[str, TagValue], key: str, default: float = 0.0) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return default
    return float(value)


def _as_str(data: dict[str, TagValue], key: str, default: str = "") -> str:
    value = data.get(key, default)
    return value if isinstance(value, str) else default


def _new_frame(event: FlightEvent) -> dict[str, object]:
    return {
        "step": _as_int(event.data, "step"),
        "strategy": _as_str(event.data, "strategy"),
        "px": _as_int(event.data, "px"),
        "py": _as_int(event.data, "py"),
        "n_nests": _as_int(event.data, "n_nests"),
        "rects": {},
        "inserted": [],
        "retained": [],
        "deleted": [],
        "choice": "",
        "redist_predicted": 0.0,
        "redist_measured": 0.0,
        "exec_predicted": 0.0,
        "exec_observed": 0.0,
        "heat_load": 0.0,
        "heat_pairs": "",
        "skew_gini": 0.0,
        "skew_max_over_mean": 0.0,
        "other": {},
        "unknown": {},
        "closed": False,
    }


def _bump(frame: dict[str, object], slot: str, kind: str, n: int = 1) -> None:
    counts = frame[slot]
    assert isinstance(counts, dict)
    counts[kind] = counts.get(kind, 0) + n


def _tally_slot(kind: str) -> str:
    known = kind in KNOWN_EVENT_KINDS or kind.endswith((".start", ".end"))
    return "other" if known else "unknown"


class FrameFold:
    """Folds a flight stream into one frame per adaptation point, as it comes.

    A frame runs from its ``adapt.start`` to the next ``adapt.start``:
    :meth:`push` hands back the finished frame when the next one opens,
    and :meth:`flush` hands back the last one when the stream ends.  The
    nest rectangles (``alloc.rect``), churn lists, dynamic choice, link
    heat and ledger skew land on the frame they arrive in — a point's
    ledger events follow its ``adapt.end``, which only marks the frame
    ``closed`` and records the redistribution times; the
    ``adaptation_point.end`` span event that follows brings the point's
    predicted and observed execution times (0.0 in a log without that
    span, such as a coupled simulation's) and is tallied like any span
    event.  Every other *known* kind — :data:`KNOWN_EVENT_KINDS` plus
    every span event (``.start``/``.end`` suffix) — is tallied into the
    frame's ``other`` counts; the rest go to ``unknown``.  Events before the first
    ``adapt.start`` (the tail of points a bounded ring already evicted,
    say) are tallied into the first frame's counts only.
    """

    def __init__(self) -> None:
        self._frame: dict[str, object] | None = None
        self._leading: dict[str, int] = {}  # kind -> count before any frame

    def push(self, event: FlightEvent) -> dict[str, object] | None:
        """Fold one event; returns the frame it finished, if any."""
        kind, data = event.kind, event.data
        if kind == "adapt.start":
            done, self._frame = self._frame, _new_frame(event)
            for leading, n in self._leading.items():
                _bump(self._frame, _tally_slot(leading), leading, n)
            self._leading.clear()
            return done
        frame = self._frame
        if frame is None:
            self._leading[kind] = self._leading.get(kind, 0) + 1
        elif kind == "adapt.end":
            frame["redist_predicted"] = _as_float(data, "redist_predicted")
            frame["redist_measured"] = _as_float(data, "redist_measured")
            frame["closed"] = True
        elif kind == _ADAPTATION_END:
            frame["exec_predicted"] = _as_float(data, "exec_predicted")
            frame["exec_observed"] = _as_float(data, "exec_observed")
            _bump(frame, "other", kind)
        elif kind == "alloc.rect":
            rects = frame["rects"]
            assert isinstance(rects, dict)
            rects[str(_as_int(data, "nest"))] = [
                _as_int(data, "x"),
                _as_int(data, "y"),
                _as_int(data, "w"),
                _as_int(data, "h"),
            ]
        elif kind in ("nest.insert", "nest.retain", "nest.delete"):
            slot = {"nest.insert": "inserted", "nest.retain": "retained"}.get(
                kind, "deleted"
            )
            nests = frame[slot]
            assert isinstance(nests, list)
            nests.append(_as_int(data, "nest"))
        elif kind == "dynamic.choice":
            frame["choice"] = _as_str(data, "chosen")
            frame["choice_scratch_cost"] = _as_float(
                data, "scratch_exec"
            ) + _as_float(data, "scratch_redist")
            frame["choice_diffusion_cost"] = _as_float(
                data, "diffusion_exec"
            ) + _as_float(data, "diffusion_redist")
        elif kind == "link.heat":
            frame["heat_load"] = _as_float(data, "load")
            frame["heat_pairs"] = _as_str(data, "pairs")
        elif kind == "ledger.skew":
            frame["skew_gini"] = _as_float(data, "gini")
            frame["skew_max_over_mean"] = _as_float(data, "max_over_mean")
        else:
            _bump(frame, _tally_slot(kind), kind)
        return None

    def flush(self) -> dict[str, object] | None:
        """End of stream: the open frame, if any (closed or not)."""
        done, self._frame = self._frame, None
        self._leading.clear()
        return done


def replay_frames(events: Iterable[FlightEvent]) -> list[dict[str, object]]:  # reprolint: disable=R016 -- the fold a live frame stream is compared against
    """One JSON-ready frame per adaptation point of a flight log.

    :class:`FrameFold` over the whole log.  Pure and deterministic: the
    same events always produce the same frames, which is what lets a
    replayed log be compared frame-for-frame against a live stream of
    the same session.
    """
    fold = FrameFold()
    frames = [frame for frame in map(fold.push, events) if frame is not None]
    last = fold.flush()
    if last is not None:
        frames.append(last)
    return frames


class ObsServer:
    """Mission control over HTTP: replay flight logs or follow a fleet."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        replay: Sequence[str | Path] = (),
        attach: str = "",
    ) -> None:
        if bool(replay) == bool(attach):
            raise ValueError("exactly one of replay= or attach= is required")
        self.host = host
        self.port = port  # 0 = ephemeral; the real port appears after start()
        self.mode = "replay" if replay else "attach"
        self._server: asyncio.Server | None = None
        self._logs: dict[str, FlightLog] = {}
        for item in replay:
            path = Path(item)
            name = path.stem
            suffix = 2
            while name in self._logs:
                name = f"{path.stem}-{suffix}"
                suffix += 1
            self._logs[name] = load_flight_jsonl(path)
        self.upstream_host = ""
        self.upstream_port = 0
        if attach:
            host_part, _, port_part = attach.rpartition(":")
            if not host_part or not port_part.isdigit():
                raise ValueError(
                    f"attach target must be HOST:PORT, got {attach!r}"
                )
            self.upstream_host = host_part
            self.upstream_port = int(port_part)

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket (idempotent port discovery, like ServeServer)."""
        self._server = await asyncio.start_server(
            functools.partial(serve_connection, route=self._route), self.host, self.port
        )
        sockets = self._server.sockets
        assert sockets
        self.port = sockets[0].getsockname()[1]
        log.info(
            "mission control (%s mode) on http://%s:%d",
            self.mode,
            self.host,
            self.port,
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ----------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        _query: dict[str, str],
        _body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if method != "GET":
            raise HTTPError(405, f"{method} not allowed")
        if path == "/":
            await self._send_static(writer, "index.html")
            return
        if path.startswith("/static/"):
            await self._send_static(writer, path[len("/static/") :])
            return
        if path == "/healthz":
            await send_json(
                writer,
                200,
                {
                    "status": "ok",
                    "mode": self.mode,
                    "sessions": len(self._logs) if self.mode == "replay" else -1,
                },
            )
            return
        if path == "/api/sessions":
            await self._send_sessions(writer)
            return
        if path == "/api/metrics":
            await self._send_metrics(writer)
            return
        match = re.fullmatch(r"/api/sessions/([^/]+)/(events|frames)", path)
        if match:
            sid, what = match.group(1), match.group(2)
            if self.mode == "replay":
                self._replay_log(sid)  # an unknown id is a 404 before any body
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Connection: close\r\n\r\n"
            )
            events = self._session_events(sid)
            if what == "events":
                async for event in events:
                    await _send_line(writer, event.to_json())
                return
            fold = FrameFold()
            async for event in events:
                await _send_frame(writer, fold.push(event))
            await _send_frame(writer, fold.flush())
            return
        raise HTTPError(404, f"no such route: {method} {path}")

    # -- static assets -----------------------------------------------------

    async def _send_static(self, writer: asyncio.StreamWriter, name: str) -> None:
        if not _STATIC_NAME.match(name):
            raise HTTPError(404, f"no such asset: {name!r}")
        target = _STATIC_DIR / name
        if not target.is_file():
            raise HTTPError(404, f"no such asset: {name!r}")
        content_type = _CONTENT_TYPES.get(
            target.suffix, "application/octet-stream"
        )
        await send_text(
            writer, 200, target.read_text(encoding="utf-8"), content_type
        )

    # -- sessions ----------------------------------------------------------

    def _replay_log(self, sid: str) -> FlightLog:
        try:
            return self._logs[sid]
        except KeyError as exc:
            raise HTTPError(404, f"no such replay session: {sid!r}") from exc

    def _replay_snapshot(self, sid: str, flight_log: FlightLog) -> dict[str, object]:
        steps = sum(1 for e in flight_log if e.kind == "adapt.end")
        return {
            "id": sid,
            "state": "replay",
            "events_emitted": len(flight_log),
            "skipped_lines": flight_log.skipped_lines,
            "steps_completed": steps,
            "steps_total": steps,
        }

    async def _send_sessions(self, writer: asyncio.StreamWriter) -> None:
        if self.mode == "replay":
            snaps = [
                self._replay_snapshot(sid, flight_log)
                for sid, flight_log in self._logs.items()
            ]
            await send_json(writer, 200, {"sessions": snaps})
            return
        status, body = await http_json(
            self.upstream_host, self.upstream_port, "GET", "/sessions"
        )
        await send_json(writer, status, body)

    async def _session_events(self, sid: str) -> AsyncIterator[FlightEvent]:
        """A session's flight events: the loaded log in replay mode, the
        upstream NDJSON stream (followed until terminal) in attach mode."""
        if self.mode == "replay":
            for event in self._replay_log(sid):
                yield event
            return
        lineno = 0
        async for line in http_stream_lines(
            self.upstream_host, self.upstream_port, f"/sessions/{sid}/events"
        ):
            lineno += 1
            yield parse_flight_line(line, lineno)

    # -- metrics -----------------------------------------------------------

    async def _send_metrics(self, writer: asyncio.StreamWriter) -> None:
        if self.mode == "replay":
            rollup = aggregate_fleet(
                recorders=[replay_flight(flight_log) for flight_log in self._logs.values()]
            )
            text = render_prometheus(fleet_metrics(rollup, prefix="repro_replay"))
            await send_text(
                writer, 200, text, "text/plain; version=0.0.4; charset=utf-8"
            )
            return
        status, text = await http_text(
            self.upstream_host, self.upstream_port, "/metrics"
        )
        await send_text(
            writer, status, text, "text/plain; version=0.0.4; charset=utf-8"
        )


async def _send_line(writer: asyncio.StreamWriter, line: str) -> None:
    writer.write(line.encode() + b"\n")
    await writer.drain()


async def _send_frame(
    writer: asyncio.StreamWriter, frame: dict[str, object] | None
) -> None:
    """One finished frame as an NDJSON line (no-op while none finished)."""
    if frame is not None:
        await _send_line(writer, json.dumps(frame, sort_keys=True))
