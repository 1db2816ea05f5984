"""Tests for the flight recorder (``repro.obs.flight``).

Covers the acceptance criteria: the ring is bounded (capacity test), the
JSONL export round-trips through the replay loader, and instrumented runs
emit the adaptation/nest/tree/redistribution event stream.
"""

import math

import pytest

from repro.core import DiffusionStrategy, ScratchStrategy
from repro.experiments import synthetic_workload
from repro.experiments.runner import ExperimentContext, run_workload
from repro.obs import (
    DEFAULT_FLIGHT_CAPACITY,
    FlightEvent,
    FlightRecorder,
    format_flight,
    get_recorder,
    load_flight_jsonl,
    replay_flight,
    set_recorder,
    use_recorder,
)
from repro.obs.export import chrome_trace, format_report
from repro.serve import ScenarioSpec, SessionStore
from repro.topology import MACHINES


class TestRing:
    def test_capacity_bounds_memory(self):
        ring = FlightRecorder(capacity=8)
        for i in range(20):
            ring.emit("tick", i=i)
        assert len(ring) == 8
        assert ring.total_emitted == 20
        assert ring.dropped == 12
        # oldest events evicted first; seq keeps counting across eviction
        assert [ev.seq for ev in ring.events()] == list(range(12, 20))
        assert [ev.data["i"] for ev in ring.events()] == list(range(12, 20))

    def test_default_capacity_and_validation(self):
        assert FlightRecorder().capacity == DEFAULT_FLIGHT_CAPACITY
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_timestamps_monotonic(self):
        ring = FlightRecorder()
        for _ in range(5):
            ring.emit("tick")
        ts = [ev.t for ev in ring.events()]
        assert ts == sorted(ts)
        assert all(t >= 0.0 for t in ts)

    def test_reset(self):
        ring = FlightRecorder(capacity=4)
        for _ in range(10):
            ring.emit("tick")
        ring.reset()
        assert len(ring) == 0
        assert ring.total_emitted == 0
        assert ring.dropped == 0
        ring.emit("tick")
        assert ring.events()[0].seq == 0


class TestAmbient:
    def test_always_on_by_default(self):
        ring = get_recorder()
        assert isinstance(ring, FlightRecorder)
        before = ring.total_emitted
        ring.emit("probe")
        assert ring.total_emitted == before + 1

    def test_use_scopes_and_restores(self):
        before = get_recorder()
        outer, inner = FlightRecorder(capacity=16), FlightRecorder(capacity=16)
        with use_recorder(outer):
            get_recorder().emit("outer")
            with use_recorder(inner):
                get_recorder().emit("inner")
            assert get_recorder() is outer
        assert get_recorder() is before
        # each emit lands in the innermost scoped ring only
        assert [ev.kind for ev in outer.events()] == ["outer"]
        assert [ev.kind for ev in inner.events()] == ["inner"]

    def test_set_returns_previous(self):
        before = get_recorder()
        mine = FlightRecorder(capacity=16)
        assert set_recorder(mine) is before
        try:
            get_recorder().emit("set")
        finally:
            assert set_recorder(before) is mine
        assert get_recorder() is before
        assert [ev.kind for ev in mine.events()] == ["set"]


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        ring = FlightRecorder(capacity=8)
        ring.emit("adapt.start", step=0, strategy="scratch")
        ring.emit("nest.insert", nest=3, nx=60, ny=90)
        ring.emit("adapt.end", step=0, redist_predicted=0.125)
        path = ring.write_jsonl(tmp_path / "flight.jsonl")
        loaded = load_flight_jsonl(path)
        assert loaded == ring.events()

    def test_round_trip_after_eviction_keeps_seq(self, tmp_path):
        ring = FlightRecorder(capacity=4)
        for i in range(10):
            ring.emit("tick", i=i)
        loaded = load_flight_jsonl(ring.write_jsonl(tmp_path / "f.jsonl"))
        assert [ev.seq for ev in loaded] == [6, 7, 8, 9]
        # the replayed recorder keeps each event's seq and t
        replayed = replay_flight(loaded)
        assert replayed.events() == loaded
        assert replayed.total_emitted == 10 and replayed.dropped == 6

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('\n{"seq": 0, "t": 0.5, "kind": "tick", "data": {}}\n\n')
        events = load_flight_jsonl(path)
        assert events == [FlightEvent(seq=0, t=0.5, kind="tick", data={})]

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"t": 0.0, "kind": "x", "data": {}}',  # missing seq
            '{"seq": "0", "t": 0.0, "kind": "x", "data": {}}',  # bad seq type
            '{"seq": 0, "t": 0.0, "kind": 5, "data": {}}',  # bad kind type
            '{"seq": 0, "t": 0.0, "kind": "x", "data": {"k": [1]}}',  # bad tag
        ],
    )
    def test_malformed_lines_rejected_with_line_number(self, tmp_path, line):
        # a bad line FOLLOWED by a good one is corruption, not truncation
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"seq": 0, "t": 0.0, "kind": "ok", "data": {}}\n'
            + line
            + '\n{"seq": 1, "t": 1.0, "kind": "ok", "data": {}}\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            load_flight_jsonl(path)

    @pytest.mark.parametrize("n_bad", [1, 3])
    def test_truncated_trailing_lines_skipped_and_counted(self, tmp_path, n_bad):
        ring = FlightRecorder()
        ring.emit("adapt.start", step=0)
        ring.emit("adapt.end", step=0)
        path = ring.write_jsonl(tmp_path / "f.jsonl")
        with path.open("a", encoding="utf-8") as fh:
            for _ in range(n_bad):
                fh.write('{"seq": 9, "t": 2.0, "kind": "trunc\n')
        loaded = load_flight_jsonl(path)
        assert loaded == ring.events()
        assert loaded.skipped_lines == n_bad

    def test_clean_log_reports_zero_skips(self, tmp_path):
        ring = FlightRecorder()
        ring.emit("tick", i=0)
        loaded = load_flight_jsonl(ring.write_jsonl(tmp_path / "f.jsonl"))
        assert loaded.skipped_lines == 0

    def test_all_lines_truncated_loads_empty(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"seq": 0, "t"\n{"broken\n')
        loaded = load_flight_jsonl(path)
        assert loaded == [] and loaded.skipped_lines == 2


def _write_flight_log(path):
    ring = FlightRecorder()
    for i in range(3):
        ring.emit("tick", i=i)
    ring.write_jsonl(path)


def _write_journal(path):
    store = SessionStore(journal_path=path)
    for seed in range(3):
        store.create(ScenarioSpec(steps=1, seed=seed))


#: the two readers of a JSONL file that a crashed writer may have cut
#: short: (write a clean file, read it back and return the skipped lines)
LENIENT_READERS = {
    "flight log": (
        _write_flight_log,
        lambda path: load_flight_jsonl(path).skipped_lines,
    ),
    "serve journal": (
        _write_journal,
        lambda path: SessionStore.recover(path, compact=False).journal_skipped_lines,
    ),
}


class TestLenientJsonl:
    """One lenient-JSONL rule, shared by the flight loader and the
    serve journal's recovery."""

    @pytest.mark.parametrize("reader", sorted(LENIENT_READERS))
    def test_truncated_tail_skipped_mid_file_damage_raises(self, tmp_path, reader):
        write, skipped_lines = LENIENT_READERS[reader]
        path = tmp_path / "log.jsonl"
        write(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) >= 3
        # a writer that died mid-append: the half line is skipped and counted
        path.write_text("\n".join([*lines, lines[-1][:-5]]) + "\n", encoding="utf-8")
        assert skipped_lines(path) == 1
        # a bad line that a good one follows is corruption
        damaged = [lines[0], lines[1][:-5], *lines[2:]]
        path.write_text("\n".join(damaged) + "\n", encoding="utf-8")
        # both messages name the line: "flight JSONL line 2: …", "log.jsonl:2: …"
        with pytest.raises(ValueError, match=r"(line |\.jsonl:)2: .*\(mid-file corruption\)$"):
            skipped_lines(path)


class TestReplay:
    def test_pairs_start_end_into_spans(self):
        events = [
            FlightEvent(0, 0.0, "adapt.start", {"step": 0, "strategy": "scratch"}),
            FlightEvent(1, 0.25, "adapt.end", {"step": 0, "redist": 1}),
            FlightEvent(2, 0.5, "nest.insert", {"nest": 4}),
        ]
        rec = replay_flight(events)
        spans = {s.name: s for s in rec.spans}
        adapt = spans["adapt"]
        assert adapt.start == 0.0 and adapt.end == 0.25
        # tags merged from both ends, the start event winning on clashes
        assert adapt.tags["strategy"] == "scratch" and adapt.tags["redist"] == 1
        # a decision event is not a span; it stays in the ring as itself
        assert set(spans) == {"adapt"}
        assert rec.events() == events
        assert rec.digests()["adapt"].total == 0.25
        assert rec.counters == {
            "flight.adapt.start": 1.0,
            "flight.adapt.end": 1.0,
            "flight.nest.insert": 1.0,
        }

    def test_start_tags_win_on_clash(self):
        events = [
            FlightEvent(0, 0.0, "a.start", {"who": "start"}),
            FlightEvent(1, 1.0, "a.end", {"who": "end"}),
        ]
        rec = replay_flight(events)
        assert rec.spans[0].tags["who"] == "start"

    def test_unclosed_start_tagged(self):
        events = [FlightEvent(0, 0.5, "adapt.start", {"step": 7})]
        rec = replay_flight(events)
        (span,) = rec.spans
        assert span.name == "adapt"
        assert span.tags["unclosed"] == 1 and span.tags["step"] == 7
        assert span.duration == 0.0

    def test_end_without_start_is_point_event(self):
        rec = replay_flight([FlightEvent(0, 0.5, "adapt.end", {})])
        (span,) = rec.spans
        assert span.name == "adapt.end" and span.duration == 0.0

    def test_nested_pairs_match_innermost(self):
        events = [
            FlightEvent(0, 0.0, "a.start", {"n": 0}),
            FlightEvent(1, 1.0, "a.start", {"n": 1}),
            FlightEvent(2, 2.0, "a.end", {}),
            FlightEvent(3, 3.0, "a.end", {}),
        ]
        rec = replay_flight(events)
        by_start = sorted(rec.spans, key=lambda s: s.start)
        assert [s.tags["n"] for s in by_start] == [0, 1]
        assert by_start[0].end == 3.0 and by_start[1].end == 2.0

    def test_replayed_recorder_feeds_exporters(self):
        events = [
            FlightEvent(0, 0.0, "adapt.start", {"step": 0}),
            FlightEvent(1, 0.1, "adapt.end", {}),
            FlightEvent(2, 0.2, "nest.delete", {"nest": 2}),
        ]
        rec = replay_flight(events)
        report = format_report(rec, title="replayed")
        assert "adapt" in report
        trace = chrome_trace(rec)
        assert any(ev.get("name") == "adapt" for ev in trace["traceEvents"])


class TestFormatFlight:
    def test_counts_and_tail(self):
        ring = FlightRecorder(capacity=4)
        for i in range(6):
            ring.emit("tick", i=i)
        text = format_flight(ring, tail=2)
        assert "4 events retained" in text
        assert "2 dropped" in text
        assert "tick" in text and "i=5" in text

    def test_empty_ring(self):
        text = format_flight(FlightRecorder())
        assert "0 events retained" in text


class TestInstrumentedRun:
    """A real run populates the ring with the documented event kinds."""

    def _run(self, strategy):
        ring = FlightRecorder()
        ctx = ExperimentContext(MACHINES["bgl-256"])
        with use_recorder(ring):
            run_workload(synthetic_workload(seed=0, n_steps=6), strategy, ctx)
        return ring

    def test_adaptation_events_emitted(self):
        ring = self._run(ScratchStrategy())
        kinds = {ev.kind for ev in ring.events()}
        assert {"adapt.start", "adapt.end"} <= kinds
        starts = [ev for ev in ring.events() if ev.kind == "adapt.start"]
        assert len(starts) == 6
        assert starts[0].data["strategy"] == "scratch"
        assert {"nest.insert"} <= kinds  # the workload grows nests

    def test_diffusion_emits_tree_edit_and_redist_events(self):
        ring = self._run(DiffusionStrategy())
        kinds = {ev.kind for ev in ring.events()}
        assert "redist.round" in kinds
        assert kinds & {"tree.free", "tree.fill_slot", "tree.pair_insert"}

    def test_run_round_trips_through_replay(self, tmp_path):
        ring = self._run(ScratchStrategy())
        loaded = load_flight_jsonl(ring.write_jsonl(tmp_path / "run.jsonl"))
        assert loaded == ring.events()
        rec = replay_flight(loaded)
        # every adapt.start paired with its adapt.end: no unclosed spans
        adapt_spans = [s for s in rec.spans if s.name == "adapt"]
        assert len(adapt_spans) == 6
        assert all("unclosed" not in s.tags for s in adapt_spans)
        assert all(s.duration >= 0.0 for s in adapt_spans)
        assert not any(math.isnan(s.duration) for s in rec.spans)
