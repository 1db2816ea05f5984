"""Tests for mission control (``repro.obs.webui``).

Covers the UI layer end to end: the pure frame fold
(:class:`FrameFold` / :func:`replay_frames`), the replay HTTP server
over exported flight JSONL, and the acceptance E2E — a live ``repro
serve`` fleet attached through the obs server delivers every flight
event for a completed session bit-identically (same
``flight_signature``) to the session's own ring export, and the frames
attach mode streams equal both the fold of the streamed events and the
frames replay mode serves for the same JSONL.
"""

from __future__ import annotations

import ast
import asyncio
import json
from pathlib import Path

import pytest

import repro

from repro.experiments import synthetic_workload
from repro.experiments.runner import ExperimentContext, run_workload
from repro.mpisim.ledger import CommLedger
from repro.obs import (
    FlightEvent,
    FlightRecorder,
    load_flight_jsonl,
    parse_prometheus,
    use_recorder,
)
from repro.obs.webui import ObsServer, replay_frames
from repro.obs.webui.server import KNOWN_EVENT_KINDS, FrameFold
from repro.serve import (
    SchedulerConfig,
    SessionScheduler,
    SessionStore,
    flight_signature,
)
from repro.serve.api import ServeServer
from repro.serve.wire import http_json, http_stream_lines, http_text
from repro.topology import MACHINES

def _literal_event_kinds() -> tuple[dict[str, list[frozenset[str]]], set[str]]:
    """Event kinds ``src/repro`` emits as literals, and its literal span names.

    A kind is emitted by ``<recorder>.emit("kind", ...)`` or by
    ``FlightEvent(kind="kind", ...)``; a span is opened by
    ``<recorder>.span("name", ...)``.  Each kind maps to the keyword names
    of its ``emit`` calls, one set per call; a call that passes ``**``
    tags, and a ``FlightEvent``, add no set (their tags are not known
    statically).
    """
    emitted: dict[str, list[frozenset[str]]] = {}
    spans: set[str] = set()
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            first = node.args[0] if node.args else None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if name == "emit":
                    calls = emitted.setdefault(first.value, [])
                    names = [kw.arg for kw in node.keywords if kw.arg is not None]
                    if len(names) == len(node.keywords):
                        calls.append(frozenset(names))
                elif name == "span":
                    spans.add(first.value)
            if name == "FlightEvent":
                for kw in node.keywords:
                    if kw.arg == "kind" and isinstance(kw.value, ast.Constant):
                        emitted.setdefault(kw.value.value, [])
    return emitted, spans


#: one representative payload per emitted event kind, for the loader
#: round-trip satellite: every kind the library emits today must survive
#: JSONL and render in replay without an unknown-event fallback; a kind
#: with a literal ``emit`` carries exactly the tags one of its emitters sends
_SAMPLE_DATA: dict[str, dict[str, object]] = {
    "adapt.start": {"step": 0, "strategy": "dynamic", "n_nests": 2, "px": 16, "py": 16},
    "adapt.end": {
        "step": 0,
        "strategy": "dynamic",
        "n_nests": 2,
        "px": 16,
        "py": 16,
        "redist_predicted": 0.25,
        "redist_measured": 0.3,
    },
    "alloc.rect": {"step": 0, "nest": 1, "x": 0, "y": 0, "w": 8, "h": 8},
    "nest.insert": {"step": 0, "nest": 1, "nx": 60, "ny": 90},
    "nest.retain": {"step": 0, "nest": 2, "nx": 72, "ny": 72},
    "nest.delete": {"step": 0, "nest": 3},
    "tree.free": {"nest": 3},
    "tree.fill_slot": {"nest": 4, "policy": "sibling-match"},
    "tree.huffman_fill": {"n_nests": 2},
    "tree.pair_insert": {"nest": 5},
    "tree.prune_slot": {},
    "redist.round": {"nest": 1, "n_messages": 12, "network_bytes": 1024.0, "overlap": 0.5},
    "redist.retry": {"nest": 1, "attempt": 1, "backoff": 0.01},
    "redist.round_failed": {"nest": 1, "attempt": 0, "reason": "timeout"},
    "redist.recovered": {"nest": 1, "attempts": 2, "total_backoff": 0.01},
    "redist.aborted": {"nest": 2, "attempts": 3, "total_backoff": 0.07},
    "dynamic.choice": {
        "chosen": "diffusion",
        "scratch_exec": 1.0,
        "scratch_redist": 0.5,
        "diffusion_exec": 1.0,
        "diffusion_redist": 0.2,
    },
    "link.heat": {"step": 0, "link": 7, "load": 4096.0, "pairs": "0>1:2048;2>3:2048"},
    "ledger.skew": {"step": 0, "gini": 0.42, "max_over_mean": 3.5, "total": 8192.0},
    "fault.inject": {"step": 4, "fault": "rank_crash", "rank": 3},
    "fault.detected": {"step": 4, "rank": 3},
    "recovery.start": {"step": 4, "dead_ranks": "3"},
    "recovery.shrink": {"step": 4, "old_grid": "16x16", "new_grid": "15x16"},
    "recovery.drop_nest": {"step": 4, "nest": 2},
    "recovery.verified": {"step": 4, "ok": 1, "retained": 1, "dropped": 1},
    "recovery.nest_rebuilt": {"step": 4, "nest": 1, "from_checkpoint": 0},
    "recovery.done": {"step": 4, "new_grid": "15x16", "retained": 1, "dropped": 1},
    "sanitizer.violation": {"check": "bytes_conserved", "detail": "moved 10 of 12 bytes"},
    "session.state": {"state": "done", "reason": "", "step": 3},
    "session.hibernate": {"step": 3},
    "session.rematerialize": {"step": 3},
    "stream.gap": {"lost": 12},
    "pda.partial": {"missing": 1, "corrupt": 0, "coverage": 0.999023},
    "soak.data_mismatch": {"step": 2, "nest": 1},
    "soak.invariant_violation": {"step": 2, "error": "overlap"},
    "chaos.phase": {"phase": "fleet", "campaign": "worker-crash"},
    "chaos.fault": {"fault": "worker.crash", "worker": 1, "task": "worker-1", "fleet_step": 7},
    "chaos.verdict": {"campaign": "worker-crash", "ok": 1, "stuck": 0, "signature_ok": 1},
}


def _instrumented_flight(n_steps: int = 5) -> FlightRecorder:
    """A real dynamic-strategy run with the ledger feed, so the log holds
    adapt/alloc/churn/choice/heat/skew events like production traffic."""
    machine = MACHINES["bgl-256"]
    context = ExperimentContext(machine, ledger=CommLedger(machine.ncores))
    flight = FlightRecorder()
    with use_recorder(flight):
        run_workload(
            synthetic_workload(seed=3, n_steps=n_steps),
            context.make_dynamic_strategy(),
            context,
        )
    return flight


def _events_from_ndjson(lines: list[str]) -> list[FlightEvent]:
    out = []
    for line in lines:
        d = json.loads(line)
        out.append(
            FlightEvent(seq=d["seq"], t=d["t"], kind=d["kind"], data=d["data"])
        )
    return out


async def _get_frames(host: str, port: int, sid: str) -> list[dict[str, object]]:
    """The NDJSON frames of ``/api/sessions/{sid}/frames``, one per line."""
    return [
        json.loads(line)
        async for line in http_stream_lines(host, port, f"/api/sessions/{sid}/frames")
    ]


class TestKnownKinds:
    def test_sample_table_covers_exactly_the_known_kinds(self):
        assert set(_SAMPLE_DATA) == set(KNOWN_EVENT_KINDS)

    def test_known_kinds_are_exactly_the_literal_emitted_kinds(self):
        emitted, spans = _literal_event_kinds()
        span_kinds = {f"{name}.{end}" for name in spans for end in ("start", "end")}
        # every known kind has an emitter: an emit, an event or a span
        assert KNOWN_EVENT_KINDS - set(emitted) - span_kinds == set()
        # and every literal kind the library emits is known
        assert set(emitted) - KNOWN_EVENT_KINDS == set()
        # a sample carries exactly the tags of one of its kind's literal
        # emitters (a kind with none, emitted only through ``**`` tags or a
        # FlightEvent, is exempt)
        wrong = {
            kind: (sorted(_SAMPLE_DATA[kind]), [sorted(tags) for tags in calls])
            for kind, calls in emitted.items()
            if calls and frozenset(_SAMPLE_DATA[kind]) not in calls
        }
        assert wrong == {}

    def test_every_kind_round_trips_through_jsonl(self, tmp_path):
        ring = FlightRecorder()
        for kind in sorted(_SAMPLE_DATA):
            ring.emit(kind, **_SAMPLE_DATA[kind])
        loaded = load_flight_jsonl(ring.write_jsonl(tmp_path / "kinds.jsonl"))
        assert loaded == ring.events()
        assert loaded.skipped_lines == 0

    def test_every_kind_renders_without_unknown_fallback(self):
        events = [
            FlightEvent(seq=i, t=float(i), kind=kind, data=dict(_SAMPLE_DATA[kind]))  # type: ignore[arg-type]
            for i, kind in enumerate(sorted(_SAMPLE_DATA))
        ]
        frames = replay_frames(events)
        assert frames
        assert all(frame["unknown"] == {} for frame in frames)

    def test_real_run_emits_only_known_kinds(self):
        flight = _instrumented_flight()
        kinds = {ev.kind for ev in flight.events()}
        # span events are known by their suffix, whatever the span's name
        spans = {k for k in kinds if k.endswith((".start", ".end"))}
        assert {"adaptation_point.start", "adaptation_point.end"} <= spans
        assert kinds - spans <= KNOWN_EVENT_KINDS
        # the enriched stream carries everything the canvas renders
        assert {
            "adapt.start",
            "adapt.end",
            "alloc.rect",
            "dynamic.choice",
            "link.heat",
            "ledger.skew",
        } <= kinds
        assert all(f["unknown"] == {} for f in replay_frames(flight.events()))


class TestReplayFrames:
    @pytest.mark.parametrize("strategy", ["dynamic", "diffusion"])
    def test_one_round_per_retained_nest(self, strategy):
        """Only the executed plan emits ``redist.round``: the dynamic
        strategy's candidate costing adds none, in its own frame or the
        next."""
        from repro.core import DiffusionStrategy

        context = ExperimentContext(MACHINES["bgl-256"])
        chosen = (
            context.make_dynamic_strategy()
            if strategy == "dynamic"
            else DiffusionStrategy()
        )
        flight = FlightRecorder()
        with use_recorder(flight):
            run_workload(synthetic_workload(seed=3, n_steps=8), chosen, context)
        frames = replay_frames(flight.events())
        assert len(frames) == 8
        assert any(frame["retained"] for frame in frames)
        for frame in frames:
            assert frame["other"].get("redist.round", 0) == len(frame["retained"])

    def test_folds_one_frame_per_adaptation_point(self):
        flight = _instrumented_flight(n_steps=4)
        frames = replay_frames(flight.events())
        assert len(frames) == 4
        for step, frame in enumerate(frames):
            assert frame["step"] == step
            assert frame["closed"] is True
            assert frame["px"] == 16 and frame["py"] == 16
            assert frame["rects"]  # every point lays out rectangles
            assert frame["choice"] in ("scratch", "diffusion")

    def test_each_frame_carries_its_own_points_heat_and_skew(self):
        # a point's ledger events follow its adapt.end, and still land on
        # that point's frame
        flight = _instrumented_flight()
        events = flight.events()
        frames = replay_frames(events)
        heat = {e.data["step"]: e.data for e in events if e.kind == "link.heat"}
        skew = {e.data["step"]: e.data for e in events if e.kind == "ledger.skew"}
        assert heat and set(heat) == set(skew)
        for step, data in heat.items():
            (frame,) = [f for f in frames if f["step"] == step]
            assert frame["heat_load"] == data["load"] > 0.0
            assert frame["heat_pairs"] == data["pairs"]
            assert frame["skew_gini"] == skew[step]["gini"] > 0.0
            assert frame["skew_max_over_mean"] == skew[step]["max_over_mean"]
        for frame in frames:
            if frame["step"] not in heat:
                assert frame["heat_load"] == 0.0 and frame["skew_gini"] == 0.0

    def test_frame_fields_from_synthetic_events(self):
        events = [
            FlightEvent(0, 0.0, "adapt.start", {"step": 2, "strategy": "dynamic", "n_nests": 2, "px": 8, "py": 4}),
            FlightEvent(1, 0.1, "alloc.rect", {"nest": 7, "x": 1, "y": 2, "w": 3, "h": 4}),
            FlightEvent(2, 0.2, "nest.insert", {"nest": 7}),
            FlightEvent(3, 0.3, "nest.delete", {"nest": 5}),
            FlightEvent(4, 0.4, "dynamic.choice", {"chosen": "scratch", "scratch_exec": 1.0, "scratch_redist": 0.5, "diffusion_exec": 2.0, "diffusion_redist": 0.25}),
            FlightEvent(5, 0.5, "link.heat", {"load": 9.0, "pairs": "0>1:9"}),
            FlightEvent(6, 0.6, "ledger.skew", {"gini": 0.5, "max_over_mean": 2.0}),
            FlightEvent(7, 0.7, "redist.round", {"round": 0}),
            FlightEvent(8, 0.8, "adapt.end", {"step": 2, "redist_predicted": 0.5, "redist_measured": 0.75}),
        ]
        (frame,) = replay_frames(events)
        assert frame["step"] == 2 and frame["px"] == 8 and frame["py"] == 4
        assert frame["rects"] == {"7": [1, 2, 3, 4]}
        assert frame["inserted"] == [7] and frame["deleted"] == [5]
        assert frame["choice"] == "scratch"
        assert frame["choice_scratch_cost"] == pytest.approx(1.5)
        assert frame["choice_diffusion_cost"] == pytest.approx(2.25)
        assert frame["heat_load"] == 9.0 and frame["heat_pairs"] == "0>1:9"
        assert frame["skew_gini"] == 0.5
        assert frame["redist_measured"] == 0.75
        assert frame["other"] == {"redist.round": 1}
        assert frame["closed"] is True
        # no adaptation_point span (a coupled simulation's log): no exec times
        assert frame["exec_predicted"] == 0.0 and frame["exec_observed"] == 0.0

    def test_adaptation_point_end_brings_exec_times(self):
        events = [
            FlightEvent(0, 0.0, "adapt.start", {"step": 0}),
            FlightEvent(1, 0.1, "adapt.end", {"step": 0}),
            FlightEvent(2, 0.2, "adaptation_point.end", {"step": 0, "exec_predicted": 2.5, "exec_observed": 2.75}),
        ]
        (frame,) = replay_frames(events)
        assert frame["exec_predicted"] == 2.5 and frame["exec_observed"] == 2.75
        assert frame["other"] == {"adaptation_point.end": 1}  # still tallied

    def test_real_run_frames_carry_each_points_exec_times(self):
        machine = MACHINES["bgl-256"]
        context = ExperimentContext(machine)
        flight = FlightRecorder()
        with use_recorder(flight):
            run = run_workload(
                synthetic_workload(seed=3, n_steps=5),
                context.make_dynamic_strategy(),
                context,
            )
        frames = replay_frames(flight.events())
        assert [f["exec_predicted"] for f in frames] == run.series("exec_predicted")
        assert [f["exec_observed"] for f in frames] == run.series("exec_actual")
        assert all(f["exec_predicted"] > 0.0 and f["exec_observed"] > 0.0 for f in frames)

    def test_between_frame_events_attach_to_next_frame(self):
        events = [
            FlightEvent(0, 0.0, "session.state", {"state": "running"}),
            FlightEvent(1, 0.1, "adapt.start", {"step": 0}),
            FlightEvent(2, 0.2, "adapt.end", {"step": 0}),
        ]
        (frame,) = replay_frames(events)
        assert frame["other"] == {"session.state": 1}

    def test_leading_events_only_count_on_the_first_frame(self):
        # the tail of a point a ring evicted: its ledger events must not
        # pass for the first retained point's
        events = [
            FlightEvent(7, 0.0, "adapt.end", {"step": 3, "redist_measured": 2.0}),
            FlightEvent(8, 0.1, "link.heat", {"load": 9.0, "pairs": "0>1:9"}),
            FlightEvent(9, 0.2, "adapt.start", {"step": 4}),
        ]
        (frame,) = replay_frames(events)
        assert frame["step"] == 4 and frame["closed"] is False
        assert frame["heat_load"] == 0.0 and frame["redist_measured"] == 0.0
        assert frame["other"] == {"adapt.end": 1, "link.heat": 1}

    def test_fold_emits_a_frame_when_the_next_point_opens(self):
        events = _instrumented_flight(n_steps=3).events()
        fold = FrameFold()
        emitted = []
        for event in events:
            frame = fold.push(event)
            if frame is not None:
                assert event.kind == "adapt.start"
                emitted.append(frame)
        assert len(emitted) == 2  # the last point waits for the stream's end
        emitted.append(fold.flush())
        assert fold.flush() is None
        assert emitted == replay_frames(events)

    def test_trailing_events_attach_to_last_frame(self):
        events = [
            FlightEvent(0, 0.0, "adapt.start", {"step": 0}),
            FlightEvent(1, 0.1, "adapt.end", {"step": 0}),
            FlightEvent(2, 0.2, "session.state", {"state": "done"}),
        ]
        (frame,) = replay_frames(events)
        assert frame["other"] == {"session.state": 1}

    def test_unclosed_frame_flushed_open(self):
        events = [
            FlightEvent(0, 0.0, "adapt.start", {"step": 0}),
            FlightEvent(1, 0.1, "adapt.end", {"step": 0}),
            FlightEvent(2, 0.2, "adapt.start", {"step": 1}),
        ]
        frames = replay_frames(events)
        assert [f["closed"] for f in frames] == [True, False]

    def test_span_events_tallied_as_known(self):
        events = [
            FlightEvent(0, 0.0, "adaptation_point.start", {"step": 0}),
            FlightEvent(1, 0.1, "adapt.start", {"step": 0}),
            FlightEvent(2, 0.2, "tree.layout.start", {"step": 0}),
            FlightEvent(3, 0.3, "tree.layout.end", {"step": 0}),
            FlightEvent(4, 0.4, "adapt.end", {"step": 0}),
            FlightEvent(5, 0.5, "adaptation_point.end", {"step": 0}),
        ]
        (frame,) = replay_frames(events)
        assert frame["unknown"] == {}
        assert frame["other"] == {
            "adaptation_point.start": 1,
            "tree.layout.start": 1,
            "tree.layout.end": 1,
            "adaptation_point.end": 1,
        }

    def test_unknown_kind_tallied(self):
        events = [
            FlightEvent(0, 0.0, "adapt.start", {"step": 0}),
            FlightEvent(1, 0.1, "martian.telemetry", {}),
            FlightEvent(2, 0.2, "adapt.end", {"step": 0}),
        ]
        (frame,) = replay_frames(events)
        assert frame["unknown"] == {"martian.telemetry": 1}

    def test_deterministic(self):
        flight = _instrumented_flight(n_steps=3)
        events = flight.events()
        assert replay_frames(events) == replay_frames(list(events))

    def test_empty_log_no_frames(self):
        assert replay_frames([]) == []


class TestObsServerReplay:
    @pytest.fixture()
    def log_path(self, tmp_path):
        return _instrumented_flight(n_steps=4).write_jsonl(tmp_path / "run.jsonl")

    def _serve(self, fn, *paths, attach=""):
        async def main():
            server = ObsServer(replay=paths, attach=attach)
            await server.start()
            try:
                await fn(server)
            finally:
                await server.stop()

        asyncio.run(main())

    def test_mode_is_exclusive(self, log_path):
        with pytest.raises(ValueError, match="exactly one"):
            ObsServer()
        with pytest.raises(ValueError, match="exactly one"):
            ObsServer(replay=[log_path], attach="127.0.0.1:1")
        with pytest.raises(ValueError, match="HOST:PORT"):
            ObsServer(attach="no-port")

    def test_healthz_and_static_assets(self, log_path):
        async def check(server):
            status, health = await http_json(
                server.host, server.port, "GET", "/healthz"
            )
            assert status == 200
            assert health == {"status": "ok", "mode": "replay", "sessions": 1}
            status, index = await http_text(server.host, server.port, "/")
            assert status == 200 and "mission control" in index
            status, js = await http_text(
                server.host, server.port, "/static/visualization.js"
            )
            assert status == 200 and "/frames" in js
            status, _ = await http_text(
                server.host, server.port, "/static/nope.js"
            )
            assert status == 404
            # path traversal shapes never reach the filesystem
            status, _ = await http_text(
                server.host, server.port, "/static/..%2Fserver.py"
            )
            assert status == 404

        self._serve(check, log_path)

    def test_page_names_no_event_kind(self, log_path):
        # the server folds events into frames; the page only draws frames
        async def check(server):
            _, js = await http_text(
                server.host, server.port, "/static/visualization.js"
            )
            for kind in sorted(KNOWN_EVENT_KINDS):
                assert kind not in js, kind

        self._serve(check, log_path)

    def test_sessions_events_and_frames(self, log_path):
        log = load_flight_jsonl(log_path)

        async def check(server):
            status, listing = await http_json(
                server.host, server.port, "GET", "/api/sessions"
            )
            assert status == 200
            (snap,) = listing["sessions"]
            assert snap["id"] == "run"
            assert snap["state"] == "replay"
            assert snap["events_emitted"] == len(log)
            assert snap["steps_completed"] == 4

            lines = []
            async for line in http_stream_lines(
                server.host, server.port, "/api/sessions/run/events"
            ):
                lines.append(line)
            assert flight_signature(_events_from_ndjson(lines)) == flight_signature(
                list(log)
            )

            frames = await _get_frames(server.host, server.port, "run")
            assert frames == replay_frames(list(log))
            assert len(frames) == 4

            status, _ = await http_json(
                server.host, server.port, "GET", "/api/sessions/nope/frames"
            )
            assert status == 404
            status, _ = await http_json(
                server.host, server.port, "POST", "/api/sessions"
            )
            assert status == 405

        self._serve(check, log_path)

    def test_metrics_validate_under_replay_prefix(self, log_path):
        async def check(server):
            status, text = await http_text(server.host, server.port, "/api/metrics")
            assert status == 200
            samples = parse_prometheus(text)
            assert samples["repro_replay_sources"] == [({}, 1.0)]
            # the replayed log lands as flight.* counters in the rollup
            assert ({"name": "flight.adapt.end"}, 4.0) in samples[
                "repro_replay_counter_total"
            ]

        self._serve(check, log_path)

    def test_duplicate_stems_get_suffixed(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = _instrumented_flight(n_steps=2).write_jsonl(tmp_path / "a" / "run.jsonl")
        b = _instrumented_flight(n_steps=2).write_jsonl(tmp_path / "b" / "run.jsonl")

        async def check(server):
            _, listing = await http_json(
                server.host, server.port, "GET", "/api/sessions"
            )
            assert [s["id"] for s in listing["sessions"]] == ["run", "run-2"]

        self._serve(check, a, b)


class TestEndToEndAttach:
    """The acceptance E2E: live fleet -> attach stream -> replay identity."""

    def test_attach_stream_matches_ring_export_and_replay(self, tmp_path):
        async def main():
            store = SessionStore(capacity=8)
            scheduler = SessionScheduler(store, SchedulerConfig(workers=1))
            upstream = ServeServer(store, scheduler)
            await upstream.start()
            obs = ObsServer(attach=f"{upstream.host}:{upstream.port}")
            await obs.start()
            try:
                status, snap = await http_json(
                    upstream.host, upstream.port, "POST", "/sessions", {"steps": 3}
                )
                assert status == 201
                sid = snap["id"]

                # follow the live session through the attach proxy until
                # terminal: its events, and the frames folded from them
                async def follow(route: str) -> list[str]:
                    return [
                        line
                        async for line in http_stream_lines(
                            obs.host, obs.port, f"/api/sessions/{sid}/{route}"
                        )
                    ]

                lines, frame_lines = await asyncio.gather(
                    follow("events"), follow("frames")
                )
                streamed = _events_from_ndjson(lines)
                attach_frames = [json.loads(line) for line in frame_lines]
                assert attach_frames == replay_frames(streamed)

                # bit-identical to the session's own ring export
                session = store.get(sid)
                assert session.terminal
                assert flight_signature(streamed) == flight_signature(
                    session.events()
                )

                # the proxied session list and metrics pass through
                status, listing = await http_json(
                    obs.host, obs.port, "GET", "/api/sessions"
                )
                assert status == 200
                assert [s["id"] for s in listing["sessions"]] == [sid]
                status, text = await http_text(obs.host, obs.port, "/api/metrics")
                assert status == 200
                samples = parse_prometheus(text)
                assert samples["repro_serve_sessions"][0][0] == {"state": "done"}

                # replay mode over the same JSONL serves identical frames
                path = tmp_path / f"{sid}.jsonl"
                path.write_text(
                    "".join(line + "\n" for line in lines), encoding="utf-8"
                )
                replay = ObsServer(replay=[path])
                await replay.start()
                try:
                    frames = await _get_frames(replay.host, replay.port, sid)
                    assert frames == attach_frames
                    assert len(frames) == 3
                    assert all(f["closed"] for f in frames)
                finally:
                    await replay.stop()
            finally:
                await obs.stop()
                await upstream.stop()

        asyncio.run(main())
