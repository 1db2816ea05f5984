"""End-to-end tests of the HTTP front end (real sockets, real faults).

The centrepiece drives eight scenarios through a live server, kills one
mid-run through the fault-injection endpoint, and watches ``/healthz``
go degraded and then recover as healthy steps age the failure out of
the liveness window — the whole multi-tenant story observable from the
outside.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs import load_flight_jsonl, parse_prometheus
from repro.serve import SchedulerConfig, SessionScheduler, SessionStore
from repro.serve.api import ServeServer, http_json, http_stream_lines
from repro.serve.wire import http_text, read_response_headers


async def _started_server(
    workers: int = 2,
    health_window: int = 8,
    capacity: int = 64,
    flight_capacity: int | None = None,
) -> ServeServer:
    store = SessionStore(capacity=capacity, flight_capacity=flight_capacity)
    scheduler = SessionScheduler(
        store, SchedulerConfig(workers=workers, health_window=health_window)
    )
    server = ServeServer(store, scheduler)  # ephemeral port
    await server.start()
    return server


async def _poll(server: ServeServer, path: str, want, timeout: float = 60.0):
    """Poll ``path`` until ``want(status, body)`` is true; returns the pair."""
    for _ in range(int(timeout / 0.02)):
        status, body = await http_json(server.host, server.port, "GET", path)
        if want(status, body):
            return status, body
    raise AssertionError(f"condition on {path} not reached within {timeout}s")


class TestServeEndToEnd:
    def test_eight_sessions_with_a_mid_run_kill(self):
        async def main() -> None:
            server = await _started_server(workers=2, health_window=8)
            try:
                # one long-running victim plus seven short bystanders
                status, victim = await http_json(
                    server.host,
                    server.port,
                    "POST",
                    "/sessions",
                    {"steps": 40, "seed": 0},
                )
                assert status == 201

                # kill the victim at its next adaptation point
                status, kill = await http_json(
                    server.host,
                    server.port,
                    "POST",
                    f"/sessions/{victim['id']}/kill",
                    {"rank": 3},
                )
                assert status == 200
                assert kill["kill_at_step"] >= 0

                # the failure must flip /healthz to 503 (degraded) — and with
                # no other session running, it stays degraded until observed
                await _poll(
                    server, "/healthz", lambda st, b: st == 503 and b["status"] == "degraded"
                )

                # seven bystanders submitted against a degraded service ...
                bystanders = []
                for i in range(7):
                    status, snap = await http_json(
                        server.host,
                        server.port,
                        "POST",
                        "/sessions",
                        {"steps": 6, "seed": i + 1, "priority": i % 2},
                    )
                    assert status == 201
                    bystanders.append(snap["id"])

                # ... all finish despite the dead tenant ...
                def all_terminal(st, body):
                    states = {s["id"]: s["state"] for s in body["sessions"]}
                    return all(v in ("done", "failed") for v in states.values())

                _, listing = await _poll(server, "/sessions", all_terminal)
                states = {s["id"]: s["state"] for s in listing["sessions"]}
                assert states[victim["id"]] == "failed"
                assert all(states[b] == "done" for b in bystanders)

                # ... and the bystanders' healthy steps age the failure out
                # of the window: degraded-then-recovered
                await _poll(server, "/healthz", lambda st, b: st == 200)
                status, health = await http_json(
                    server.host, server.port, "GET", "/healthz"
                )
                assert health["status"] == "ok"
                assert health["steps_failed"] == 1
                assert health["sessions"]["done"] == 7
                assert health["sessions"]["failed"] == 1

                # the victim's flight log records the injected fault
                status, snap = await http_json(
                    server.host, server.port, "GET", f"/sessions/{victim['id']}"
                )
                assert status == 200
                assert "rank 3" in snap["error"]
            finally:
                await server.stop()

        asyncio.run(main())

    def test_event_stream_delivers_the_whole_flight_log(self):
        async def main() -> None:
            server = await _started_server(workers=1)
            try:
                _, snap = await http_json(
                    server.host, server.port, "POST", "/sessions", {"steps": 4}
                )
                events = []
                async for line in http_stream_lines(
                    server.host, server.port, f"/sessions/{snap['id']}/events"
                ):
                    events.append(json.loads(line))
                kinds = [e["kind"] for e in events]
                assert kinds.count("adapt.start") == 4
                assert kinds.count("adapt.end") == 4
                assert kinds[-1] == "session.state"
                assert events[-1]["data"]["state"] == "done"
                seqs = [e["seq"] for e in events]
                assert seqs == sorted(seqs)  # in-order, no duplicates
                assert len(set(seqs)) == len(seqs)
            finally:
                await server.stop()

        asyncio.run(main())


class TestServeValidation:
    @pytest.fixture()
    def server_main(self):
        """Run ``fn(server)`` against a started server inside asyncio.run."""

        def runner(fn):
            async def main():
                server = await _started_server()
                try:
                    await fn(server)
                finally:
                    await server.stop()

            asyncio.run(main())

        return runner

    def test_bad_spec_is_400(self, server_main):
        async def check(server):
            status, body = await http_json(
                server.host, server.port, "POST", "/sessions", {"workload": "bogus"}
            )
            assert status == 400
            assert "bogus" in body["error"]
            status, body = await http_json(
                server.host, server.port, "POST", "/sessions", {"stepz": 3}
            )
            assert status == 400

        server_main(check)

    def test_negative_seed_is_400_and_health_stays_ok(self, server_main):
        async def check(server):
            status, body = await http_json(
                server.host, server.port, "POST", "/sessions", {"seed": -1}
            )
            assert status == 400
            assert "seed" in body["error"]
            status, body = await http_json(server.host, server.port, "GET", "/healthz")
            assert status == 200 and body["status"] == "ok"
            # the rejected spec never became a session
            status, body = await http_json(server.host, server.port, "GET", "/sessions")
            assert status == 200 and body["sessions"] == []

        server_main(check)

    def test_unknown_session_is_404(self, server_main):
        async def check(server):
            status, _ = await http_json(
                server.host, server.port, "GET", "/sessions/shrug"
            )
            assert status == 404
            status, _ = await http_json(
                server.host, server.port, "GET", "/frobnicate"
            )
            assert status == 404

        server_main(check)

    def test_wrong_method_is_405(self, server_main):
        async def check(server):
            status, _ = await http_json(
                server.host, server.port, "DELETE", "/sessions"
            )
            assert status == 405

        server_main(check)

    def test_pause_resume_over_http(self, server_main):
        async def check(server):
            _, snap = await http_json(
                server.host, server.port, "POST", "/sessions", {"steps": 30}
            )
            sid = snap["id"]
            # a freshly created session may still be PENDING (pause only
            # applies to RUNNING), so retry until the first step started
            status, paused = 0, {}
            for _ in range(500):
                status, paused = await http_json(
                    server.host, server.port, "POST", f"/sessions/{sid}/pause"
                )
                if status == 200:
                    break
                await asyncio.sleep(0.01)
            assert status == 200
            assert paused["state"] == "paused"
            status, resumed = await http_json(
                server.host, server.port, "POST", f"/sessions/{sid}/resume"
            )
            assert status == 200
            await _poll(
                server,
                f"/sessions/{sid}",
                lambda st, b: b.get("state") == "done",
            )

        server_main(check)

    def test_metrics_json_fallback_shape(self, server_main):
        async def check(server):
            _, snap = await http_json(
                server.host, server.port, "POST", "/sessions", {"steps": 2}
            )
            await _poll(
                server,
                f"/sessions/{snap['id']}",
                lambda st, b: b.get("state") == "done",
            )
            status, metrics = await http_json(
                server.host, server.port, "GET", "/metrics?format=json"
            )
            assert status == 200
            assert metrics["sessions"]["done"] == 1
            assert metrics["steps_run"] == 2
            assert metrics["lanes"] == {"priority": 0, "default": 1}
            assert metrics["flight"]["dropped"] == 0
            assert metrics["health"]["status"] == "ok"

        server_main(check)

    def test_metrics_default_is_valid_prometheus(self, server_main):
        async def check(server):
            _, snap = await http_json(
                server.host, server.port, "POST", "/sessions", {"steps": 2}
            )
            await _poll(
                server,
                f"/sessions/{snap['id']}",
                lambda st, b: b.get("state") == "done",
            )
            status, text = await http_text(server.host, server.port, "/metrics")
            assert status == 200
            # the strict line-format validator accepts the whole exposition
            samples = parse_prometheus(text)
            assert samples["repro_serve_sessions"] == [
                ({"state": "done"}, 1.0),
                ({"state": "failed"}, 0.0),
                ({"state": "paused"}, 0.0),
                ({"state": "pending"}, 0.0),
                ({"state": "running"}, 0.0),
            ]
            assert samples["repro_serve_steps_total"] == [({}, 2.0)]
            assert ({"lane": "default"}, 1.0) in samples[
                "repro_serve_submitted_total"
            ]
            assert samples["repro_fleet_sources"] == [({}, 1.0)]
            # the session's telemetry rolls up: span digests + decisions
            span_names = {
                labels["name"]
                for labels, _ in samples["repro_fleet_span_seconds"]
            }
            assert "adaptation_point" in span_names
            assert "adapt" in span_names
            assert ({"chosen": "diffusion"}, 2.0) in samples[
                "repro_fleet_decisions_total"
            ]
            assert samples["repro_fleet_flight_dropped_total"] == [({}, 0.0)]

        server_main(check)

    def test_healthz_surfaces_flight_drop_counts(self, server_main):
        async def check(server):
            _, snap = await http_json(
                server.host, server.port, "POST", "/sessions", {"steps": 2}
            )
            await _poll(
                server,
                f"/sessions/{snap['id']}",
                lambda st, b: b.get("state") == "done",
            )
            status, health = await http_json(
                server.host, server.port, "GET", "/healthz"
            )
            assert status == 200
            assert health["flight"]["events"] > 0
            assert health["flight"]["dropped"] == 0

        server_main(check)

    def test_ring_overflow_surfaces_drop_counts(self):
        # regression: a session whose flight ring overflows must report
        # the eviction count in its snapshot, /healthz and /metrics —
        # silent drops are how a truncated log gets misread as complete
        async def main() -> None:
            server = await _started_server(workers=1, flight_capacity=8)
            try:
                _, snap = await http_json(
                    server.host, server.port, "POST", "/sessions", {"steps": 3}
                )
                _, snap = await _poll(
                    server,
                    f"/sessions/{snap['id']}",
                    lambda st, b: b.get("state") == "done",
                )
                assert snap["events_emitted"] > 8
                assert snap["events_dropped"] == snap["events_emitted"] - 8
                status, health = await http_json(
                    server.host, server.port, "GET", "/healthz"
                )
                assert status == 200
                assert health["flight"]["dropped"] == snap["events_dropped"]
                _, text = await http_text(server.host, server.port, "/metrics")
                samples = parse_prometheus(text)
                assert samples["repro_fleet_flight_dropped_total"] == [
                    ({}, float(snap["events_dropped"]))
                ]
            finally:
                await server.stop()

        asyncio.run(main())


async def _configured_server(
    config: SchedulerConfig, flight_capacity: int | None = None
) -> ServeServer:
    store = SessionStore(capacity=64, flight_capacity=flight_capacity)
    server = ServeServer(store, SessionScheduler(store, config))
    await server.start()
    return server


async def _post_raw(host, port, path, payload):
    """POST returning (status, headers, parsed body) — for header asserts."""
    body = json.dumps(payload).encode()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        status, headers, raw = await read_response_headers(reader)
    finally:
        writer.close()
        await writer.wait_closed()
    return status, headers, json.loads(raw.decode()) if raw else {}


class TestAdmissionControl:
    def test_degraded_service_sheds_with_retry_after(self):
        async def main() -> None:
            server = await _configured_server(
                SchedulerConfig(workers=2, shed_when_degraded=True)
            )
            try:
                server.scheduler.health.record_failure()
                status, headers, body = await _post_raw(
                    server.host, server.port, "/sessions", {"steps": 2}
                )
                assert status == 503
                assert headers["retry-after"] == "1"
                assert "degraded" in body["error"]
                assert server.scheduler.shed_total == 1
                # the shed is visible from the outside
                _, text = await http_text(server.host, server.port, "/metrics")
                samples = parse_prometheus(text)
                assert samples["repro_serve_shed_total"] == [({}, 1.0)]
                assert samples["repro_serve_worker_restarts_total"] == [({}, 0.0)]
                assert samples["repro_serve_draining"] == [({}, 0.0)]
            finally:
                await server.stop()

        asyncio.run(main())

    def test_queue_high_water_sheds(self):
        async def main() -> None:
            server = await _configured_server(
                SchedulerConfig(workers=1, admission_high_water=1)
            )
            try:
                # park the workers so submissions pile up deterministically
                await server.scheduler.stop()
                for i in range(2):
                    status, _, _ = await _post_raw(
                        server.host, server.port, "/sessions", {"steps": 3, "seed": i}
                    )
                    assert status == 201
                status, headers, body = await _post_raw(
                    server.host, server.port, "/sessions", {"steps": 3, "seed": 9}
                )
                assert status == 503
                assert headers["retry-after"] == "1"
                assert "high-water" in body["error"]
            finally:
                await server.stop()

        asyncio.run(main())

    def test_drain_endpoint_stops_intake(self):
        async def main() -> None:
            server = await _configured_server(SchedulerConfig(workers=2))
            try:
                _, snap = await http_json(
                    server.host, server.port, "POST", "/sessions", {"steps": 2}
                )
                status, drained = await http_json(
                    server.host, server.port, "POST", "/drain"
                )
                assert status == 200
                assert drained["status"] == "draining"
                assert drained["already_draining"] is False
                # a 200 means the queue emptied: in-flight steps finished
                # and the parked session is accounted for, not lost
                assert sum(drained["sessions"].values()) == 1

                # draining outranks degraded on /healthz
                status, health = await http_json(
                    server.host, server.port, "GET", "/healthz"
                )
                assert status == 503
                assert health["status"] == "draining"

                # intake is off: new sessions shed with the long retry
                status, headers, _ = await _post_raw(
                    server.host, server.port, "/sessions", {"steps": 2}
                )
                assert status == 503
                assert headers["retry-after"] == "60"

                # idempotent: a second drain reports the drained state
                status, again = await http_json(
                    server.host, server.port, "POST", "/drain"
                )
                assert status == 200
                assert again["already_draining"] is True
            finally:
                await server.stop()

        asyncio.run(main())


class TestEventStreamRobustness:
    def test_slow_consumer_does_not_block_others(self):
        # regression for the chaos campaigns' SlowConsumer fault: a client
        # that stops reading its /events stream must stall only its own
        # connection — the fleet and other consumers never notice
        async def main() -> None:
            server = await _started_server(workers=2)
            try:
                _, stalled = await http_json(
                    server.host, server.port, "POST", "/sessions", {"steps": 6}
                )
                _, brisk = await http_json(
                    server.host,
                    server.port,
                    "POST",
                    "/sessions",
                    {"steps": 6, "seed": 1},
                )
                # open a stream on the first session and then never read it
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    (
                        f"GET /sessions/{stalled['id']}/events HTTP/1.1\r\n"
                        f"Host: {server.host}\r\nConnection: close\r\n\r\n"
                    ).encode("latin-1")
                )
                await writer.drain()
                await reader.readline()  # status line only, then stall

                # the healthy consumer still gets a complete stream
                events = []
                async for line in http_stream_lines(
                    server.host, server.port, f"/sessions/{brisk['id']}/events"
                ):
                    events.append(json.loads(line))
                assert events[-1]["data"]["state"] == "done"

                # and the stalled session itself still finishes
                await _poll(
                    server,
                    f"/sessions/{stalled['id']}",
                    lambda st, b: b.get("state") == "done",
                )
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_late_subscriber_sees_a_counted_gap(self, tmp_path):
        # a client that attaches after the bounded ring wrapped gets a
        # stream.gap flight event up front — loss is counted, never
        # hidden, and the saved stream still loads as a flight log
        async def main() -> None:
            server = await _configured_server(
                SchedulerConfig(workers=1), flight_capacity=8
            )
            try:
                _, snap = await http_json(
                    server.host, server.port, "POST", "/sessions", {"steps": 4}
                )
                _, snap = await _poll(
                    server,
                    f"/sessions/{snap['id']}",
                    lambda st, b: b.get("state") == "done",
                )
                assert snap["events_emitted"] > 8
                lines = []
                async for line in http_stream_lines(
                    server.host, server.port, f"/sessions/{snap['id']}/events"
                ):
                    lines.append(line)
                path = tmp_path / "late.jsonl"
                path.write_text("".join(f"{line}\n" for line in lines), "utf-8")
                log = load_flight_jsonl(path)
                assert log.skipped_lines == 0
                gap, *ring = log
                assert gap.kind == "stream.gap"
                assert gap.data["lost"] == snap["events_emitted"] - 8
                # it sits at the first lost seq, at the first kept event's time
                assert gap.seq == 0 and ring[0].seq == gap.data["lost"]
                assert gap.t == ring[0].t
                assert len(ring) == 8  # the gap record plus the ring
            finally:
                await server.stop()

        asyncio.run(main())
