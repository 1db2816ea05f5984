"""Cross-session metric aggregation and Prometheus text exposition.

One session's recorder, ledger and audit trail describe one tracked
simulation; a *service* needs the fleet view.  :func:`aggregate_fleet`
merges any number of per-session snapshots into a :class:`FleetRollup`:
counter sums, per-span latency digests merged from each recorder's
running span digests (never from its events), fleet-wide Gini skew
over the concatenated per-rank traffic series, per-strategy decision
counts from the audit trails, and flight-ring drop totals.

The rollup exports in the Prometheus text exposition format (typed
``# HELP`` / ``# TYPE`` blocks, labelled samples) via
:class:`PromMetric` and :func:`render_prometheus`; the serve tier's
``/metrics`` endpoint and the mission-control web UI both render
through this module, and :func:`parse_prometheus` is the line-format
validator the tests (and the ``--attach`` proxy) hold that output to.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.audit import AuditTrail
from repro.obs.recorder import FlightRecorder
from repro.obs.stats import SpanDigest, summarise_digests

if TYPE_CHECKING:
    from repro.mpisim.ledger import CommLedger

__all__ = [
    "FleetRollup",
    "PromMetric",
    "PromSample",
    "QuantileDigest",
    "aggregate_fleet",
    "fleet_metrics",
    "parse_prometheus",
    "render_prometheus",
]

#: the per-rank ledger series a fleet rollup concatenates
_LEDGER_SERIES = ("sent", "received", "hop_bytes", "retried")


@dataclass(frozen=True)
class QuantileDigest:
    """Count/total plus the p50/p95/max of one duration series (seconds)."""

    count: int
    total: float
    p50: float
    p95: float
    max: float

    @classmethod
    def of_digests(cls, digests: Sequence[SpanDigest]) -> QuantileDigest:
        """Merge running span digests: count, total and max exact, p50/p95
        over their pooled recent windows."""
        stats = summarise_digests(digests)
        return cls(
            count=stats.count,
            total=stats.total,
            p50=stats.median,
            p95=stats.p95,
            max=stats.max,
        )

    def to_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total,
            "p50_s": self.p50,
            "p95_s": self.p95,
            "max_s": self.max,
        }


@dataclass(frozen=True)
class FleetRollup:
    """Service-level aggregation of many per-session telemetry snapshots."""

    sources: int
    counters: dict[str, float] = field(default_factory=dict)
    span_digests: dict[str, QuantileDigest] = field(default_factory=dict)
    gini: dict[str, float] = field(default_factory=dict)
    decisions: dict[str, int] = field(default_factory=dict)
    flight_events: int = 0
    flight_dropped: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "sources": self.sources,
            "counters": dict(sorted(self.counters.items())),
            "span_digests": {
                name: digest.to_dict()
                for name, digest in sorted(self.span_digests.items())
            },
            "gini": dict(sorted(self.gini.items())),
            "decisions": dict(sorted(self.decisions.items())),
            "flight_events": self.flight_events,
            "flight_dropped": self.flight_dropped,
        }


def aggregate_fleet(
    recorders: Iterable[FlightRecorder] = (),
    ledgers: Iterable[CommLedger] = (),
    audits: Iterable[AuditTrail] = (),
) -> FleetRollup:
    """Merge per-session snapshots into one :class:`FleetRollup`.

    ``sources`` counts the recorders (the natural per-session handle);
    the other iterables may be shorter or longer — a fleet where only
    some sessions carry a ledger still rolls up.  Span counts and sums
    are exact; p50/p95 pool the digests' recent windows, so the span
    part of a scrape costs the same however long the sessions have run.
    The ``audits`` walk visits every decision record on every scrape, so
    its cost grows with every adaptation point.  The Gini digests are
    computed over the *concatenation* of every ledger's per-rank series,
    so a fleet whose load concentrates on a few sessions' few ranks
    reads as skewed even when each session looks balanced.
    """
    # imported here: repro.mpisim imports repro.obs, so a module-level
    # import would be circular
    from repro.mpisim.ledger import gini

    counters: dict[str, float] = {}
    digests: dict[str, list[SpanDigest]] = {}
    sources = 0
    flight_events = 0
    flight_dropped = 0
    for recorder in recorders:
        sources += 1
        for name, value in recorder.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        for name, digest in recorder.digests().items():
            digests.setdefault(name, []).append(digest)
        flight_events += recorder.total_emitted
        flight_dropped += recorder.dropped
    series: dict[str, list[np.ndarray]] = {name: [] for name in _LEDGER_SERIES}
    for ledger in ledgers:
        for name in _LEDGER_SERIES:
            series[name].append(getattr(ledger, name))
    ginis: dict[str, float] = {}
    for name, parts in series.items():
        values = np.concatenate(parts) if parts else np.empty(0)
        # an all-zero series (nothing retried, say) is "no signal", not
        # "perfectly even" — omit it rather than report gini 0.0
        if values.any():
            ginis[name] = gini(values)
    decisions: dict[str, int] = {}
    for trail in audits:
        for record in trail.records:
            decisions[record.chosen] = decisions.get(record.chosen, 0) + 1
    return FleetRollup(
        sources=sources,
        counters=counters,
        span_digests={
            name: QuantileDigest.of_digests(parts)
            for name, parts in digests.items()
        },
        gini=ginis,
        decisions=decisions,
        flight_events=flight_events,
        flight_dropped=flight_dropped,
    )


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_PROM_KINDS = ("counter", "gauge", "summary", "histogram", "untyped")

#: one sample line: name, optional {labels}, value, optional timestamp
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_PAIR = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)


@dataclass(frozen=True)
class PromSample:
    """One exposition line: optional name suffix, labels, value."""

    value: float
    labels: tuple[tuple[str, str], ...] = ()
    suffix: str = ""  # "_count" / "_sum" for summary series


@dataclass(frozen=True)
class PromMetric:
    """One typed metric family: ``# HELP`` + ``# TYPE`` + its samples."""

    name: str
    kind: str
    help: str
    samples: tuple[PromSample, ...]

    def __post_init__(self) -> None:
        if not _METRIC_NAME.match(self.name):
            raise ValueError(f"invalid metric name {self.name!r}")
        if self.kind not in _PROM_KINDS:
            raise ValueError(
                f"invalid metric kind {self.kind!r}; known: {_PROM_KINDS}"
            )
        for sample in self.samples:
            for key, _value in sample.labels:
                if not _LABEL_NAME.match(key):
                    raise ValueError(f"invalid label name {key!r} on {self.name}")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(metrics: Sequence[PromMetric]) -> str:
    """The metric families as Prometheus text exposition format (0.0.4)."""
    lines: list[str] = []
    for metric in metrics:
        help_text = metric.help.replace("\\", "\\\\").replace("\n", "\\n")
        lines.append(f"# HELP {metric.name} {help_text}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for sample in metric.samples:
            name = metric.name + sample.suffix
            if sample.labels:
                body = ",".join(
                    f'{key}="{_escape_label(value)}"'
                    for key, value in sample.labels
                )
                name = f"{name}{{{body}}}"
            lines.append(f"{name} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"


def _parse_value(raw: str, lineno: int) -> float:
    special = {"NaN": float("nan"), "+Inf": float("inf"), "-Inf": float("-inf")}
    if raw in special:
        return special[raw]
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"prometheus line {lineno}: bad value {raw!r}") from exc


def _parse_labels(raw: str, lineno: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    if not raw.strip():
        return labels
    for part in raw.split(","):
        match = _LABEL_PAIR.match(part.strip())
        if match is None:
            raise ValueError(f"prometheus line {lineno}: bad label pair {part!r}")
        value = match.group("value")
        value = (
            value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        labels[match.group("key")] = value
    return labels


def parse_prometheus(
    text: str,
) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse *and validate* Prometheus text exposition.

    Returns ``{sample_name: [(labels, value), ...]}``.  Raises
    ``ValueError`` on any malformed line, on a sample whose base name
    was never declared with ``# TYPE``, or on a duplicate ``# TYPE`` —
    the strictness is the point: this is the line-format validator the
    ``/metrics`` tests hold the servers to.
    """
    types: dict[str, str] = {}
    samples: dict[str, list[tuple[dict[str, str], float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"prometheus line {lineno}: bad comment {line!r}")
            name = parts[2]
            if not _METRIC_NAME.match(name):
                raise ValueError(
                    f"prometheus line {lineno}: bad metric name {name!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _PROM_KINDS:
                    raise ValueError(
                        f"prometheus line {lineno}: bad TYPE line {line!r}"
                    )
                if name in types:
                    raise ValueError(
                        f"prometheus line {lineno}: duplicate TYPE for {name}"
                    )
                types[name] = parts[3]
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"prometheus line {lineno}: bad sample {line!r}")
        name = match.group("name")
        base = name
        for suffix in ("_count", "_sum", "_bucket"):
            if base not in types and name.endswith(suffix):
                base = name[: -len(suffix)]
        if base not in types:
            raise ValueError(
                f"prometheus line {lineno}: sample {name!r} has no TYPE"
            )
        labels = _parse_labels(match.group("labels") or "", lineno)
        value = _parse_value(match.group("value"), lineno)
        samples.setdefault(name, []).append((labels, value))
    return samples


def fleet_metrics(
    rollup: FleetRollup, prefix: str = "repro_fleet"
) -> list[PromMetric]:
    """The rollup as Prometheus metric families under ``prefix``."""
    metrics: list[PromMetric] = [
        PromMetric(
            name=f"{prefix}_sources",
            kind="gauge",
            help="Per-session telemetry snapshots merged into this rollup.",
            samples=(PromSample(value=float(rollup.sources)),),
        ),
        PromMetric(
            name=f"{prefix}_flight_events_total",
            kind="counter",
            help="Flight events emitted across the fleet (including evicted).",
            samples=(PromSample(value=float(rollup.flight_events)),),
        ),
        PromMetric(
            name=f"{prefix}_flight_dropped_total",
            kind="counter",
            help="Flight events evicted from bounded rings across the fleet.",
            samples=(PromSample(value=float(rollup.flight_dropped)),),
        ),
    ]
    if rollup.counters:
        metrics.append(
            PromMetric(
                name=f"{prefix}_counter_total",
                kind="counter",
                help="Summed per-session recorder counters, by counter name.",
                samples=tuple(
                    PromSample(value=value, labels=(("name", name),))
                    for name, value in sorted(rollup.counters.items())
                ),
            )
        )
    if rollup.span_digests:
        samples: list[PromSample] = []
        for name, digest in sorted(rollup.span_digests.items()):
            samples.append(
                PromSample(
                    value=digest.p50,
                    labels=(("name", name), ("quantile", "0.5")),
                )
            )
            samples.append(
                PromSample(
                    value=digest.p95,
                    labels=(("name", name), ("quantile", "0.95")),
                )
            )
            samples.append(
                PromSample(
                    value=float(digest.count),
                    labels=(("name", name),),
                    suffix="_count",
                )
            )
            samples.append(
                PromSample(
                    value=digest.total, labels=(("name", name),), suffix="_sum"
                )
            )
        metrics.append(
            PromMetric(
                name=f"{prefix}_span_seconds",
                kind="summary",
                help="Fleet-wide span latency digests, by span name.",
                samples=tuple(samples),
            )
        )
    if rollup.gini:
        metrics.append(
            PromMetric(
                name=f"{prefix}_comm_gini",
                kind="gauge",
                help=(
                    "Gini skew of concatenated per-rank traffic across the "
                    "fleet (0 even, 1 concentrated)."
                ),
                samples=tuple(
                    PromSample(value=value, labels=(("series", name),))
                    for name, value in sorted(rollup.gini.items())
                ),
            )
        )
    if rollup.decisions:
        metrics.append(
            PromMetric(
                name=f"{prefix}_decisions_total",
                kind="counter",
                help="Adaptation points by the strategy actually applied.",
                samples=tuple(
                    PromSample(value=float(count), labels=(("chosen", name),))
                    for name, count in sorted(rollup.decisions.items())
                ),
            )
        )
    return metrics
