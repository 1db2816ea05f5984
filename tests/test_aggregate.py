"""Tests for cross-session aggregation (``repro.obs.aggregate``).

Covers the aggregation layer: the quantile digests, fleet rollups over
recorder/ledger/audit/flight snapshots, and the Prometheus renderer +
strict line-format validator.
"""

import math

import numpy as np
import pytest

from repro.mpisim.ledger import CommLedger
from repro.mpisim.ledger import gini as numpy_gini
from repro.obs import (
    AuditTrail,
    FleetRollup,
    FlightRecorder,
    PromMetric,
    PromSample,
    QuantileDigest,
    aggregate_fleet,
    fleet_metrics,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.audit import AdaptationAudit


def _audit(step: int, chosen: str) -> AdaptationAudit:
    return AdaptationAudit(
        step=step,
        strategy="dynamic",
        chosen=chosen,
        n_nests=3,
        predicted_scratch_exec=1.0,
        predicted_scratch_redist=0.5,
        predicted_diffusion_exec=1.0,
        predicted_diffusion_redist=0.25,
        predicted_exec=1.0,
        predicted_redist=0.25,
        observed_exec=1.1,
        observed_redist=0.3,
    )


class TestQuantileDigest:
    def test_to_dict_keys(self):
        d = QuantileDigest(count=1, total=1.0, p50=1.0, p95=1.0, max=1.0).to_dict()
        assert set(d) == {"count", "total_s", "p50_s", "p95_s", "max_s"}


class TestAggregateFleet:
    def test_counters_sum_and_spans_digest(self):
        a, b = FlightRecorder(), FlightRecorder()
        a.count("steps", 2.0)
        b.count("steps", 3.0)
        b.count("faults", 1.0)
        with a.span("adapt"):
            pass
        with b.span("adapt"):
            pass
        rollup = aggregate_fleet(recorders=[a, b])
        assert rollup.sources == 2
        assert rollup.counters == {"steps": 5.0, "faults": 1.0}
        assert rollup.span_digests["adapt"].count == 2

    def test_gini_over_concatenated_ledgers(self):
        # each ledger is perfectly even on its own; the fleet is not
        lo, hi = CommLedger(2), CommLedger(2)
        lo.sent[:] = [1.0, 1.0]
        hi.sent[:] = [100.0, 100.0]
        rollup = aggregate_fleet(ledgers=[lo, hi])
        assert rollup.gini["sent"] == numpy_gini(np.concatenate([lo.sent, hi.sent]))
        assert rollup.gini["sent"] > 0.4
        # all-zero series are omitted rather than reported as 0-skew
        assert "retried" not in rollup.gini

    def test_gini_is_ledger_gini_of_the_concatenation(self):
        series = ("sent", "received", "hop_bytes", "retried")
        rng = np.random.default_rng(0)
        ledgers = [CommLedger(8) for _ in range(3)]
        for ledger in ledgers:
            for name in series:
                getattr(ledger, name)[:] = rng.uniform(0.0, 100.0, 8)
        rollup = aggregate_fleet(ledgers=ledgers)
        for name in series:
            values = np.concatenate([getattr(ledger, name) for ledger in ledgers])
            assert rollup.gini[name] == numpy_gini(values)

    def test_decisions_counted_across_audits(self):
        t1, t2 = AuditTrail(), AuditTrail()
        t1.record(_audit(0, "scratch"))
        t1.record(_audit(1, "diffusion"))
        t2.record(_audit(0, "diffusion"))
        rollup = aggregate_fleet(audits=[t1, t2])
        assert rollup.decisions == {"scratch": 1, "diffusion": 2}

    def test_flight_drop_totals(self):
        ring = FlightRecorder(capacity=4)
        for i in range(10):
            ring.emit("tick", i=i)
        rollup = aggregate_fleet(recorders=[ring])
        assert rollup.flight_events == 10
        assert rollup.flight_dropped == 6

    def test_empty_fleet(self):
        rollup = aggregate_fleet()
        assert rollup.sources == 0
        assert rollup.to_dict()["counters"] == {}


class TestRenderPrometheus:
    def test_round_trips_through_validator(self):
        metrics = [
            PromMetric(
                name="x_total",
                kind="counter",
                help="a counter",
                samples=(
                    PromSample(value=3.0, labels=(("lane", "default"),)),
                    PromSample(value=1.0, labels=(("lane", "priority"),)),
                ),
            ),
            PromMetric(
                name="y_seconds",
                kind="summary",
                help="a summary",
                samples=(
                    PromSample(value=0.5, labels=(("quantile", "0.5"),)),
                    PromSample(value=4.0, suffix="_count"),
                    PromSample(value=2.5, suffix="_sum"),
                ),
            ),
        ]
        parsed = parse_prometheus(render_prometheus(metrics))
        assert parsed["x_total"] == [
            ({"lane": "default"}, 3.0),
            ({"lane": "priority"}, 1.0),
        ]
        assert parsed["y_seconds_count"] == [({}, 4.0)]
        assert parsed["y_seconds_sum"] == [({}, 2.5)]

    def test_label_values_escaped(self):
        metrics = [
            PromMetric(
                name="x",
                kind="gauge",
                help="h",
                samples=(
                    PromSample(value=1.0, labels=(("k", 'a"b\\c\nd'),)),
                ),
            )
        ]
        parsed = parse_prometheus(render_prometheus(metrics))
        assert parsed["x"] == [({"k": 'a"b\\c\nd'}, 1.0)]

    def test_special_values(self):
        metrics = [
            PromMetric(
                name="x",
                kind="gauge",
                help="h",
                samples=(
                    PromSample(value=float("inf")),
                    PromSample(value=float("-inf")),
                    PromSample(value=float("nan")),
                ),
            )
        ]
        text = render_prometheus(metrics)
        assert "+Inf" in text and "-Inf" in text and "NaN" in text
        (values,) = [parse_prometheus(text)["x"]]
        assert values[0][1] == float("inf")
        assert math.isnan(values[2][1])

    def test_invalid_metric_rejected_at_construction(self):
        with pytest.raises(ValueError, match="metric name"):
            PromMetric(name="bad name", kind="gauge", help="h", samples=())
        with pytest.raises(ValueError, match="kind"):
            PromMetric(name="ok", kind="rate", help="h", samples=())
        with pytest.raises(ValueError, match="label name"):
            PromMetric(
                name="ok",
                kind="gauge",
                help="h",
                samples=(PromSample(value=1.0, labels=(("0bad", "v"),)),),
            )


class TestParsePrometheus:
    @pytest.mark.parametrize(
        "text",
        [
            "x 1\n",  # sample with no TYPE declaration
            "# TYPE x gauge\nx one\n",  # non-numeric value
            "# TYPE x gauge\nx{k=unquoted} 1\n",  # bad label pair
            "# TYPE x rate\nx 1\n",  # unknown kind
            "# TYPE x gauge\n# TYPE x gauge\nx 1\n",  # duplicate TYPE
            "# NOPE x\n",  # bad comment form
            "0bad 1\n",  # bad sample name
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError, match="prometheus line"):
            parse_prometheus(text)

    def test_timestamp_suffix_allowed(self):
        parsed = parse_prometheus("# TYPE x gauge\nx 1.5 1700000000000\n")
        assert parsed["x"] == [({}, 1.5)]

    def test_summary_suffixes_attach_to_base_type(self):
        text = (
            "# TYPE lat summary\n"
            'lat{quantile="0.5"} 0.25\n'
            "lat_count 2\n"
            "lat_sum 0.5\n"
        )
        parsed = parse_prometheus(text)
        assert set(parsed) == {"lat", "lat_count", "lat_sum"}


class TestFleetMetrics:
    def _rollup(self) -> FleetRollup:
        recorder = FlightRecorder(capacity=2)
        recorder.count("steps", 4.0)
        with recorder.span("adapt"):  # two of the five events
            pass
        for _ in range(3):
            recorder.emit("tick")
        ledger = CommLedger(4)
        ledger.sent[:] = [0.0, 0.0, 0.0, 8.0]
        trail = AuditTrail()
        trail.record(_audit(0, "diffusion"))
        return aggregate_fleet(
            recorders=[recorder],
            ledgers=[ledger],
            audits=[trail],
        )

    def test_families_render_and_validate(self):
        parsed = parse_prometheus(render_prometheus(fleet_metrics(self._rollup())))
        assert parsed["repro_fleet_sources"] == [({}, 1.0)]
        assert parsed["repro_fleet_flight_events_total"] == [({}, 5.0)]
        assert parsed["repro_fleet_flight_dropped_total"] == [({}, 3.0)]
        assert ({"name": "steps"}, 4.0) in parsed["repro_fleet_counter_total"]
        assert ({"name": "adapt"}, 1.0) in parsed["repro_fleet_span_seconds_count"]
        assert ({"series": "sent"}, 0.75) in parsed["repro_fleet_comm_gini"]
        assert parsed["repro_fleet_decisions_total"] == [
            ({"chosen": "diffusion"}, 1.0)
        ]

    def test_prefix_override(self):
        metrics = fleet_metrics(self._rollup(), prefix="repro_replay")
        assert all(m.name.startswith("repro_replay_") for m in metrics)

    def test_empty_rollup_renders_base_families_only(self):
        metrics = fleet_metrics(aggregate_fleet())
        names = {m.name for m in metrics}
        assert names == {
            "repro_fleet_sources",
            "repro_fleet_flight_events_total",
            "repro_fleet_flight_dropped_total",
        }
        parse_prometheus(render_prometheus(metrics))
