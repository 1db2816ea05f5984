"""repro.obs — the telemetry subsystem (one event ring, trace export).

The library's only performance surface is one always-on, bounded
:class:`~repro.obs.recorder.FlightRecorder`: decision events, nestable
timed spans (each a ``.start``/``.end`` event pair on the same ring,
with a running per-name duration digest) and counters/gauges.  Around
it: the :class:`~repro.obs.audit.AuditTrail` of fault-recovery
decisions, exporters (Chrome trace-event JSON, text/HTML reports,
flight JSONL), and the ``repro bench`` pinned perf-baseline suite with
its :func:`~repro.obs.compare.compare_bench` regression gate.

Quick start::

    from repro.obs import FlightRecorder, format_report, use_recorder

    rec = FlightRecorder()
    with use_recorder(rec):
        run_workload(workload, strategy, context)
    print(format_report(rec))

See ``docs/observability.md`` for the span API, the flight recorder,
the §V-F accuracy table, and the bench workflow.  This package (and only this
package) may read raw clocks — reprolint rule R007 keeps
``time.perf_counter()``/``time.time()`` out of the rest of the library.
"""

from __future__ import annotations

from repro.obs.aggregate import (
    FleetRollup,
    PromMetric,
    PromSample,
    aggregate_fleet,
    fleet_metrics,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.audit import AuditTrail, RecoveryDecision, pearson
from repro.obs.bench import (
    BenchPhase,
    BenchResult,
    bench_phases,
    format_bench,
    run_bench,
    write_baseline,
)
from repro.obs.compare import (
    BenchComparison,
    PhaseDelta,
    compare_bench,
    format_comparison,
    load_bench_json,
)
from repro.obs.export import (
    chrome_trace,
    format_report,
    html_report,
    write_chrome_trace,
)
from repro.obs.flight import (
    FlightLog,
    format_flight,
    load_flight_jsonl,
    replay_flight,
)
from repro.obs.recorder import (
    ADAPTATION_SPAN,
    DECISION_COUNTER,
    DEFAULT_FLIGHT_CAPACITY,
    FlightEvent,
    FlightRecorder,
    SpanRecord,
    TagValue,
    get_recorder,
    set_recorder,
    use_recorder,
)
from repro.obs.stats import (
    PhaseStats,
    SpanDigest,
    percentile,
    summarise,
)

__all__ = [
    "ADAPTATION_SPAN",
    "DECISION_COUNTER",
    "DEFAULT_FLIGHT_CAPACITY",
    "AuditTrail",
    "BenchComparison",
    "BenchPhase",
    "BenchResult",
    "FleetRollup",
    "FlightEvent",
    "FlightLog",
    "FlightRecorder",
    "PhaseDelta",
    "PhaseStats",
    "PromMetric",
    "PromSample",
    "RecoveryDecision",
    "SpanDigest",
    "SpanRecord",
    "TagValue",
    "aggregate_fleet",
    "bench_phases",
    "chrome_trace",
    "compare_bench",
    "fleet_metrics",
    "format_bench",
    "format_comparison",
    "format_flight",
    "format_report",
    "get_recorder",
    "html_report",
    "load_bench_json",
    "load_flight_jsonl",
    "parse_prometheus",
    "pearson",
    "percentile",
    "render_prometheus",
    "replay_flight",
    "run_bench",
    "set_recorder",
    "summarise",
    "use_recorder",
    "write_baseline",
    "write_chrome_trace",
]
