"""Tests for the ``repro.obs`` telemetry subsystem.

Covers the recorder's span surface (spans as ring events, digests,
counters, gauges, per-context span state), the adaptation-point
timeline queries, the exporters (Chrome trace round-trip in
particular), the instrumented library paths, the per-span overhead
bound the design promises, and the bench harness.
"""

import json
import math
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    ADAPTATION_SPAN,
    DEFAULT_FLIGHT_CAPACITY,
    FlightRecorder,
    chrome_trace,
    format_report,
    get_recorder,
    percentile,
    set_recorder,
    summarise,
    use_recorder,
    write_chrome_trace,
)
from repro.obs.stats import (
    BUCKETS_PER_DOUBLING,
    DIGEST_BUCKETS,
    DIGEST_LOWEST_S,
    SpanDigest,
)


class TestInMemoryRecorder:
    """The span, counter and gauge surface of the one recorder."""

    def test_records_span_with_duration(self):
        rec = FlightRecorder()
        with rec.span("phase"):
            pass
        (span,) = rec.spans
        assert span.name == "phase"
        assert span.end >= span.start >= 0.0
        assert span.duration == span.end - span.start

    def test_nesting_depth(self):
        rec = FlightRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        by_name = {s.name: s for s in rec.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # inner closes (and is recorded) first
        assert [s.name for s in rec.spans] == ["inner", "outer"]

    def test_tags_and_live_tagging(self):
        rec = FlightRecorder()
        with rec.span("p", nest=3) as span:
            assert span.tag(moved=12) is span
        assert rec.spans[0].tags == {"nest": 3, "moved": 12}

    def test_span_is_a_start_end_event_pair(self):
        rec = FlightRecorder()
        with rec.bind(step=2):
            with rec.span("p", nest=3) as span:
                rec.emit("decision", pick=1)
                span.tag(moved=12)
        start, decision, end = rec.events()
        assert [start.kind, decision.kind, end.kind] == ["p.start", "decision", "p.end"]
        # the data holds only tags; the timing lives in t
        assert start.data == {"step": 2, "nest": 3}
        assert end.data == {"step": 2, "nest": 3, "moved": 12}
        assert start.t <= decision.t <= end.t
        digest = rec.digests()["p"]
        assert digest.count == 1
        assert digest.total == pytest.approx(end.t - start.t)

    def test_digest_size_is_fixed(self):
        rec = FlightRecorder(capacity=8)
        sizes = {}
        for n in range(1, 10_001):
            with rec.span("p"):
                pass
            if n in (10, 10_000):
                digest = rec.digests()["p"]
                assert digest.count == sum(digest.buckets) == n
                sizes[n] = len(digest.buckets)
        assert sizes == {10: DIGEST_BUCKETS, 10_000: DIGEST_BUCKETS}
        assert len(rec.spans) == 4  # the ring keeps its last 4 pairs
        stats = digest.stats()
        assert stats.min <= stats.median <= stats.p95 <= stats.max

    def test_threads_sharing_a_ring_keep_their_own_spans(self):
        rec = FlightRecorder()
        inside = threading.Barrier(2)
        depths: dict[str, int] = {}

        def work(name: str) -> None:
            with rec.bind(worker=name):
                with rec.span(name) as span:
                    inside.wait()  # both spans open at once
                    depths[name] = span.depth
                    with rec.span(name + ".inner") as inner:
                        depths[name + ".inner"] = inner.depth
                        inside.wait()

        threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert depths == {"a": 0, "b": 0, "a.inner": 1, "b.inner": 1}
        digests = rec.digests()
        assert {name: d.count for name, d in digests.items()} == {
            "a": 1, "b": 1, "a.inner": 1, "b.inner": 1
        }
        starts = {e.kind: e.data for e in rec.events() if e.kind.endswith(".start")}
        assert starts["a.inner.start"] == {"worker": "a"}
        assert starts["b.inner.start"] == {"worker": "b"}

    def test_bind_merges_ambient_tags(self):
        rec = FlightRecorder()
        with rec.bind(step=4, strategy="diffusion"):
            with rec.span("p", nest=1):
                pass
        with rec.span("q"):
            pass
        assert rec.spans[0].tags == {"step": 4, "strategy": "diffusion", "nest": 1}
        assert rec.spans[1].tags == {}

    def test_explicit_tag_beats_ambient(self):
        rec = FlightRecorder()
        with rec.bind(step=1):
            with rec.span("p", step=9):
                pass
        assert rec.spans[0].tags["step"] == 9

    def test_counters_accumulate_gauges_overwrite(self):
        rec = FlightRecorder()
        rec.count("miss")
        rec.count("miss", 2.0)
        rec.gauge("nests", 3)
        rec.gauge("nests", 5)
        assert rec.counters == {"miss": 3.0}
        assert rec.gauges == {"nests": 5}

    def test_out_of_order_close_raises(self):
        rec = FlightRecorder()
        outer = rec.span("outer")
        inner = rec.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_reset_with_open_span_raises(self):
        rec = FlightRecorder()
        with rec.span("open"):
            with pytest.raises(RuntimeError, match="open spans"):
                rec.reset()

    def test_reset_clears_everything(self):
        rec = FlightRecorder()
        with rec.span("p"):
            pass
        rec.count("c")
        rec.gauge("g", 1)
        rec.reset()
        assert rec.spans == [] and rec.counters == {} and rec.gauges == {}
        assert rec.digests() == {} and rec.events() == []

    def test_durations_by_name(self):
        rec = FlightRecorder()
        for _ in range(3):
            with rec.span("p"):
                pass
        with rec.span("q"):
            pass
        digests = rec.digests()
        assert digests["p"].count == 3
        assert digests["q"].count == 1
        assert "absent" not in digests


#: the relative error bound of a digest quantile: half a bucket, in log space
DIGEST_EPSILON = 2 ** (0.5 / BUCKETS_PER_DOUBLING) - 1
#: the upper edge of a digest's last bucket
DIGEST_HIGHEST_S = DIGEST_LOWEST_S * 2 ** (DIGEST_BUCKETS / BUCKETS_PER_DOUBLING)


class TestSpanDigest:
    """The mergeable bucketed digest and its quantile error bound."""

    @settings(max_examples=300, deadline=None)
    @given(
        durations=st.lists(
            st.floats(
                min_value=DIGEST_LOWEST_S,
                max_value=DIGEST_HIGHEST_S,
                exclude_max=True,
            ),
            min_size=1,
            max_size=300,
        ),
        parts=st.integers(min_value=1, max_value=5),
        rng=st.randoms(use_true_random=False),
    )
    def test_merged_quantiles_within_the_bucket_error(self, durations, parts, rng):
        digests = [SpanDigest() for _ in range(parts)]
        for duration in durations:
            digests[rng.randrange(parts)].add(duration)
        merged = SpanDigest.merged(digests)
        rng.shuffle(digests)
        split = rng.randrange(parts + 1)
        regrouped = SpanDigest.merged(
            [SpanDigest.merged(digests[:split]), SpanDigest.merged(digests[split:])]
        )
        assert regrouped.buckets == merged.buckets
        assert merged.count == regrouped.count == len(durations)
        assert merged.min == min(durations) and merged.max == max(durations)
        xs = sorted(durations)
        bound = 1 + DIGEST_EPSILON + 1e-12  # float slack at a bucket edge
        for q in (0.0, 50.0, 95.0, 100.0):
            r = q / 100 * (len(xs) - 1)
            estimate = merged.quantile(q)
            assert xs[math.floor(r)] / bound <= estimate <= xs[math.ceil(r)] * bound

    @pytest.mark.parametrize("duration", [0.0, 1e-12, 3.7e-4, 2.5, 5000.0])
    def test_one_duration_reads_exactly(self, duration):
        digest = SpanDigest()
        digest.add(duration)
        stats = digest.stats()
        assert stats.median == stats.p95 == stats.min == stats.max == duration

    def test_out_of_range_durations_count_in_the_end_buckets(self):
        digest = SpanDigest()
        for duration in (0.0, DIGEST_LOWEST_S / 2, DIGEST_HIGHEST_S, 1e6):
            digest.add(duration)
        assert digest.buckets[0] == digest.buckets[-1] == 2
        assert sum(digest.buckets) == digest.count == 4
        assert (digest.min, digest.max) == (0.0, 1e6)


class TestActiveRecorder:
    def test_default_is_the_always_on_process_ring(self):
        default = get_recorder()
        assert isinstance(default, FlightRecorder)
        assert default.capacity == DEFAULT_FLIGHT_CAPACITY
        # a fresh worker thread (no copied context) sees the same ring
        seen = []
        worker = threading.Thread(target=lambda: seen.append(get_recorder()))
        worker.start()
        worker.join()
        assert seen == [default]

    def test_use_recorder_restores_previous(self):
        rec = FlightRecorder(capacity=16)
        before = get_recorder()
        with use_recorder(rec) as active:
            assert active is rec
            assert get_recorder() is rec
            get_recorder().emit("scoped")
        assert get_recorder() is before
        assert [ev.kind for ev in rec.events()] == ["scoped"]

    def test_use_recorder_restores_on_error(self):
        rec = FlightRecorder()
        before = get_recorder()
        with pytest.raises(RuntimeError):
            with use_recorder(rec):
                raise RuntimeError("boom")
        assert get_recorder() is before

    def test_set_recorder_returns_previous(self):
        rec = FlightRecorder()
        before = get_recorder()
        previous = set_recorder(rec)
        try:
            assert previous is before
            assert get_recorder() is rec
        finally:
            set_recorder(previous)


class TestStats:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summarise(self):
        st = summarise([0.1, 0.3, 0.2])
        assert st.count == 3
        assert st.total == pytest.approx(0.6)
        assert st.median == pytest.approx(0.2)
        assert st.min == pytest.approx(0.1) and st.max == pytest.approx(0.3)
        d = st.to_dict()
        assert set(d) == {
            "count", "total_s", "mean_s", "median_s", "p95_s", "min_s", "max_s"
        }


@contextmanager
def _adaptation_point(rec, step, strategy, **tags):
    """What the workload stepper opens around every adaptation point."""
    with rec.bind(step=step, strategy=strategy):
        with rec.span(ADAPTATION_SPAN, **tags):
            yield


class TestTimeline:
    def _record_two_steps(self):
        rec = FlightRecorder()
        for step in range(2):
            with _adaptation_point(rec, step=step, strategy="diffusion"):
                with rec.span("tree.edit"):
                    pass
                with rec.span("netsim"):
                    pass
        return rec

    def test_umbrella_span_and_tags(self):
        rec = self._record_two_steps()
        umbrellas = [s for s in rec.spans if s.name == ADAPTATION_SPAN]
        assert len(umbrellas) == 2
        assert {s.tags["step"] for s in umbrellas} == {0, 1}
        assert all(s.tags["strategy"] == "diffusion" for s in umbrellas)

    def test_nested_spans_inherit_step(self):
        rec = self._record_two_steps()
        edits = [s for s in rec.spans if s.name == "tree.edit"]
        assert [s.tags["step"] for s in edits] == [0, 1]


def _balanced(events):
    """Simulate a trace viewer: every E must close the innermost open B."""
    stack = []
    for ev in events:
        if ev["ph"] == "B":
            stack.append(ev["name"])
        elif ev["ph"] == "E":
            if not stack or stack[-1] != ev["name"]:
                return False
            stack.pop()
    return not stack


class TestChromeTrace:
    def _recorded(self):
        rec = FlightRecorder()
        with _adaptation_point(rec, step=0, strategy="scratch", n_nests=2):
            with rec.span("tree.huffman", n_nests=2):
                pass
            with rec.span("tree.layout"):
                pass
        return rec

    def test_round_trips_as_json(self):
        doc = json.loads(json.dumps(chrome_trace(self._recorded())))
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)

    def test_timestamps_monotonic(self):
        events = chrome_trace(self._recorded())["traceEvents"]
        ts = [e["ts"] for e in events if e["ph"] in ("B", "E")]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)

    def test_balanced_and_nested(self):
        events = chrome_trace(self._recorded())["traceEvents"]
        assert _balanced([e for e in events if e["ph"] in ("B", "E")])

    def test_balanced_with_zero_duration_spans(self):
        rec = FlightRecorder()
        with rec.span("outer"):
            for _ in range(5):
                with rec.span("inner"):
                    pass
        events = chrome_trace(rec)["traceEvents"]
        assert _balanced([e for e in events if e["ph"] in ("B", "E")])

    def test_metadata_and_tags(self):
        events = chrome_trace(self._recorded(), process_name="bench")["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "bench"
        huffman_b = next(
            e for e in events if e["ph"] == "B" and e["name"] == "tree.huffman"
        )
        assert huffman_b["args"]["step"] == 0
        assert huffman_b["args"]["n_nests"] == 2

    def test_write_chrome_trace(self, tmp_path):
        path = write_chrome_trace(self._recorded(), tmp_path / "trace.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["traceEvents"]


class TestMetricsSnapshotAndReport:
    def _recorded(self):
        rec = FlightRecorder()
        with rec.span("p"):
            pass
        rec.count("miss", 2)
        rec.gauge("nests", 4)
        return rec

    def test_report_mentions_everything(self):
        text = format_report(self._recorded(), title="demo")
        assert "demo" in text and "p" in text
        assert "miss" in text and "nests" in text


class TestInstrumentedRun:
    """The library's hot paths actually hit the recorder end to end."""

    def _run(self):
        from repro.core import DiffusionStrategy
        from repro.experiments import synthetic_workload
        from repro.experiments.runner import ExperimentContext, run_workload
        from repro.topology import MACHINES

        rec = FlightRecorder()
        ctx = ExperimentContext(MACHINES["bgl-256"])
        wl = synthetic_workload(seed=0, n_steps=6)
        with use_recorder(rec):
            run = run_workload(wl, DiffusionStrategy(), ctx)
        return rec, wl, run

    def test_every_step_has_an_adaptation_span(self):
        rec, wl, _ = self._run()
        umbrellas = [s for s in rec.spans if s.name == ADAPTATION_SPAN]
        assert len(umbrellas) == wl.n_steps
        assert [s.tags["step"] for s in umbrellas] == list(range(wl.n_steps))
        assert all(s.tags["strategy"] == "diffusion" for s in umbrellas)

    def test_phases_observed_inside_steps(self):
        rec, wl, _ = self._run()
        steps = {s.tags["step"] for s in rec.spans if "step" in s.tags}
        assert steps == set(range(wl.n_steps))
        observed = {s.name for s in rec.spans}
        assert "adapt" in observed
        assert "tree.layout" in observed
        assert "netsim.bottleneck" in observed

    def test_phase_times_fit_inside_umbrella(self):
        rec, _, _ = self._run()
        umbrella = {s.tags["step"]: s.duration for s in rec.spans if s.name == ADAPTATION_SPAN}
        adapt: dict[int, float] = {}
        for s in rec.spans:
            if s.name == "adapt":
                adapt[s.tags["step"]] = adapt.get(s.tags["step"], 0.0) + s.duration
        assert set(adapt) == set(umbrella)
        for step, seconds in adapt.items():
            assert seconds <= umbrella[step] + 1e-9

    def test_trace_of_real_run_is_balanced(self):
        rec, _, _ = self._run()
        events = chrome_trace(rec)["traceEvents"]
        assert _balanced([e for e in events if e["ph"] in ("B", "E")])


class TestNoOpOverhead:
    """The design promise: permanently-instrumented paths stay cheap with
    recording always on."""

    N = 20_000

    def _timed(self, fn):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def test_disabled_span_per_call_bound(self):
        # nothing scoped: the spans land in the default process ring
        assert isinstance(get_recorder(), FlightRecorder)

        def instrumented():
            total = 0
            for i in range(self.N):
                with get_recorder().span("hot", i=i):
                    total += i
            return total

        per_call = self._timed(instrumented) / self.N
        # a recorded span costs a few µs; it must stay under the bound
        # even on a loaded CI machine
        assert per_call < 20e-6, f"span cost {per_call * 1e6:.2f}µs/call"


class TestBench:
    def test_quick_subset_runs_and_serialises(self, tmp_path):
        from repro.obs.bench import format_bench, run_bench, write_baseline

        result = run_bench(
            quick=True, repeats=2, phases=["tree.scratch", "tree.diffusion"]
        )
        assert result.quick and result.repeats == 2
        assert set(result.phases) == {"tree.scratch", "tree.diffusion"}
        for stats in result.phases.values():
            assert stats.count == 2
            assert stats.median >= 0.0

        path = write_baseline(result, tmp_path / "bench.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema"] == 2
        assert payload["suite"] == "repro-bench"
        assert payload["machine"] == "bgl-256"
        assert isinstance(payload["git_describe"], str) and payload["git_describe"]
        for stats in payload["phases"].values():
            assert stats["median_s"] >= 0.0 and stats["p95_s"] >= stats["median_s"]

        text = format_bench(result)
        assert "tree.scratch" in text and "median" in text

    def test_unknown_phase_rejected(self):
        from repro.obs.bench import run_bench

        with pytest.raises(ValueError, match="unknown bench phase"):
            run_bench(quick=True, phases=["nope"])

    def test_bad_repeats_rejected(self):
        from repro.obs.bench import run_bench

        with pytest.raises(ValueError, match="repeats"):
            run_bench(quick=True, repeats=0)

    def test_catalogue_covers_required_phases(self):
        from repro.obs.bench import bench_phases

        required = {
            "analysis.pda",
            "tree.scratch",
            "tree.diffusion",
            "grid.transfer_matrix",
            "netsim.bottleneck",
            "netsim.flow",
            "dataplane.roundtrip",
            "e2e.compare",
        }
        assert required <= {p.name for p in bench_phases()}

    def test_scale_suite_catalogue(self):
        from repro.obs.bench import scale_phases

        quick = {p.name for p in scale_phases(quick=True)}
        full = {p.name for p in scale_phases(quick=False)}
        # the quick ladder stops at 4k ranks; the full one climbs to 64k
        assert {"scale.ranks_1k", "scale.ranks_4k"} <= quick
        assert "scale.ranks_64k" not in quick
        # the dynamic strategy's churn point is gated in CI, quick included
        assert "scale.dynamic_churn" in quick
        assert {
            "scale.ranks_1k",
            "scale.ranks_4k",
            "scale.ranks_16k",
            "scale.ranks_64k",
            "scale.nests_8",
            "scale.nests_32",
            "scale.dynamic_churn",
            "scale.ledger_pairs",
        } <= full

    def test_churn_schedule_moves_one_nest_per_point(self):
        import itertools

        from repro.obs.bench import _churn_batches, _churn_schedule

        points = list(itertools.islice(_churn_schedule(), 40))
        counts = [len(p) for p in points]
        assert counts[:11] == [3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3]
        assert points == list(itertools.islice(_churn_schedule(), 40))  # pinned
        # set-up runs two sweeps of the nest count, each timed call one
        batches = list(itertools.islice(_churn_batches(), 3))
        assert [len(b) for b in batches] == [20, 10, 10]
        assert [p for b in batches for p in b] == points
        seen: set[int] = set(points[0])
        for before, after in zip(points, points[1:]):
            born, died = set(after) - set(before), set(before) - set(after)
            assert len(born) + len(died) == 1
            assert not born & seen  # ids are never reused
            seen |= born
            for nid in set(before) & set(after):
                assert after[nid] == before[nid]
        assert all(48 <= side <= 120 for p in points for s in p.values() for side in s)

    def test_scale_suite_runs_and_tags_machine(self, tmp_path):
        from repro.obs.bench import run_bench, write_baseline

        result = run_bench(
            quick=True, repeats=1, suite="scale", phases=["scale.ledger_pairs"]
        )
        assert set(result.phases) == {"scale.ledger_pairs"}
        # scale results are tagged so compare never mixes them with the
        # default single-machine suite
        payload = json.loads(
            write_baseline(result, tmp_path / "scale.json").read_text(
                encoding="utf-8"
            )
        )
        assert payload["machine"] == "scale"

    def test_suite_and_route_cache_validation(self):
        from repro.obs.bench import run_bench

        with pytest.raises(ValueError, match="suite"):
            run_bench(quick=True, suite="nope")


class TestExporterEdgeCases:
    """Exporters must not choke on empty, unclosed or span-free recorders."""

    def test_empty_recorder_everywhere(self):
        rec = FlightRecorder()
        doc = chrome_trace(rec)
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]  # metadata only
        assert rec.digests() == {} and rec.counters == {} and rec.gauges == {}
        text = format_report(rec, title="empty")
        assert "empty" in text and "phase" in text

    def test_open_span_is_invisible_until_closed(self):
        rec = FlightRecorder()
        handle = rec.span("never.closed")
        handle.__enter__()
        # the ring holds the start event, but the recorder only exports
        # *completed* spans; an open one must neither appear nor crash
        # the exporters
        assert [e.kind for e in rec.events()] == ["never.closed.start"]
        assert rec.spans == []
        events = chrome_trace(rec)["traceEvents"]
        assert all(e["name"] != "never.closed" for e in events)
        assert "never.closed" not in format_report(rec)
        assert rec.digests() == {}
        handle.__exit__(None, None, None)
        assert "never.closed" in rec.digests()

    def test_counters_and_gauges_only(self):
        rec = FlightRecorder()
        rec.count("netsim.route_cache_miss", 3)
        rec.gauge("nests.live", 7)
        doc = json.loads(json.dumps(chrome_trace(rec)))
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]
        assert rec.digests() == {}
        assert rec.counters == {"netsim.route_cache_miss": 3}
        assert rec.gauges == {"nests.live": 7}
        text = format_report(rec)
        assert "netsim.route_cache_miss" in text and "nests.live" in text

    def test_write_chrome_trace_empty(self, tmp_path):
        path = write_chrome_trace(FlightRecorder(), tmp_path / "empty.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["traceEvents"][0]["ph"] == "M"


class TestHtmlReport:
    def test_sections_escaped_and_wrapped(self):
        from repro.obs import html_report

        page = html_report(
            [("phases <1>", "a | b\n--+--"), ("audit & trail", "x < y")],
            title="repro obs <report>",
        )
        assert page.startswith("<!DOCTYPE html>")
        assert "<title>repro obs &lt;report&gt;</title>" in page
        assert "<h2>phases &lt;1&gt;</h2>" in page
        assert "<h2>audit &amp; trail</h2>" in page
        assert "x &lt; y" in page
        assert "<1>" not in page  # raw unescaped text must not leak

    def test_empty_sections(self):
        from repro.obs import html_report

        page = html_report([])
        assert "<h1>repro obs report</h1>" in page
        assert page.endswith("</body></html>\n")
