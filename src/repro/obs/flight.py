"""Flight logs: JSONL load, replay and a text summary of a recorder's ring.

A :class:`~repro.obs.recorder.FlightRecorder` exports its ring to JSONL
(one event per line); :func:`load_flight_jsonl` loads a log back,
tolerating the truncated tail a crashed writer leaves (the rule of
:func:`read_lenient_jsonl`, which the serve journal shares), and
:func:`replay_flight` turns it into a recorder of the same type, so the
text/Chrome exporters and the fleet rollup read a log exactly like a
live session.  A live follower parses a streamed log one line at a time
with the loader's own :func:`parse_flight_line`.  :func:`format_flight`
is the human-readable summary of a ring: per-kind counts plus the last
events.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import TypeVar

from repro.obs.recorder import FlightEvent, FlightRecorder, TagValue, pair_spans

__all__ = [
    "FlightLog",
    "load_flight_jsonl",
    "parse_flight_line",
    "read_lenient_jsonl",
    "replay_flight",
    "format_flight",
]


# ---------------------------------------------------------------------------
# load + replay
# ---------------------------------------------------------------------------


def _event_from_dict(payload: dict[str, object], lineno: int) -> FlightEvent:
    try:
        seq = payload["seq"]
        t = payload["t"]
        kind = payload["kind"]
        data = payload.get("data", {})
    except KeyError as exc:
        raise ValueError(f"flight JSONL line {lineno}: missing key {exc}") from exc
    if not isinstance(seq, int) or not isinstance(t, (int, float)):
        raise ValueError(f"flight JSONL line {lineno}: bad seq/t types")
    if not isinstance(kind, str) or not isinstance(data, dict):
        raise ValueError(f"flight JSONL line {lineno}: bad kind/data types")
    tags: dict[str, TagValue] = {}
    for key, value in data.items():
        if not isinstance(key, str) or not isinstance(value, (str, int, float)):
            raise ValueError(
                f"flight JSONL line {lineno}: data entry {key!r} is not a tag value"
            )
        tags[key] = value
    return FlightEvent(seq=seq, t=float(t), kind=kind, data=tags)


class FlightLog(list[FlightEvent]):
    """A loaded flight log — a plain event list plus a skip count.

    ``skipped_lines`` counts the truncated trailing lines a lenient load
    dropped (0 for a clean log); being a ``list`` subclass keeps every
    existing consumer of :func:`load_flight_jsonl` working unchanged.
    """

    def __init__(
        self, events: Iterable[FlightEvent] = (), skipped_lines: int = 0
    ) -> None:
        super().__init__(events)
        self.skipped_lines = skipped_lines


T = TypeVar("T")


def read_lenient_jsonl(
    path: str | Path, parse: Callable[[str, int], T], strict: bool = False
) -> tuple[list[tuple[int, T]], list[str]]:
    """Parse every non-blank line of a JSONL file with ``parse(line, lineno)``.

    ``parse`` raises ``ValueError`` with the message to report.  A writer
    that crashed mid-append leaves unparseable *trailing* lines: they are
    skipped, and their messages come back beside the ``(lineno, value)``
    of every good line.  An unparseable line that a good one follows is
    corruption, not truncation, and raises ``ValueError`` (``"…
    (mid-file corruption)"``); with ``strict`` every bad line raises.
    """
    good: list[tuple[int, T]] = []
    pending: list[str] = []  # bad lines no good line has followed yet
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = parse(line, lineno)
            except ValueError as exc:
                if strict:
                    raise
                pending.append(str(exc))
                continue
            if pending:
                raise ValueError(f"{pending[0]} (mid-file corruption)")
            good.append((lineno, value))
    return good, pending


def parse_flight_line(line: str, lineno: int) -> FlightEvent:
    """One JSONL line as a :class:`FlightEvent`; raises ``ValueError``
    naming ``lineno`` when it is not a flight event."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"flight JSONL line {lineno}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"flight JSONL line {lineno}: not a JSON object")
    return _event_from_dict(payload, lineno)


def load_flight_jsonl(path: str | Path, strict: bool = False) -> FlightLog:
    """Load an exported flight log back into :class:`FlightEvent` objects.

    A run that crashed mid-write leaves a truncated final line (or several,
    with buffered writers); by default those *trailing* unparseable lines
    are skipped and counted in the returned log's ``skipped_lines`` so the
    record stays replayable — exactly when a flight log matters most.  An
    unparseable line *followed by a valid one* is real corruption, not
    truncation, and always raises; ``strict=True`` restores raising on any
    bad line.
    """
    events, skipped = read_lenient_jsonl(path, parse_flight_line, strict=strict)
    return FlightLog((event for _, event in events), skipped_lines=len(skipped))


def replay_flight(events: Iterable[FlightEvent]) -> FlightRecorder:
    """A flight log as a recorder of its own, for the exporters.

    The recorder's ring holds exactly ``events``, each keeping its
    ``seq`` and ``t``, so its ``spans`` view pairs them by
    :func:`~repro.obs.recorder.pair_spans`' rules.  Every span's duration
    is folded into the digests and every kind is tallied into a
    ``flight.<kind>`` counter, so
    :func:`~repro.obs.export.format_report`,
    :func:`~repro.obs.export.chrome_trace` and
    :func:`~repro.obs.aggregate.aggregate_fleet` read a log directly.
    """
    log = list(events)
    recorder = FlightRecorder(capacity=max(len(log), 1))
    recorder._events.extend(log)
    recorder._seq = log[-1].seq + 1 if log else 0
    for event in log:
        recorder.count(f"flight.{event.kind}")
    for span in pair_spans(log):
        recorder._digests[span.name].add(span.duration)
    return recorder


def format_flight(recorder: FlightRecorder, tail: int = 20) -> str:
    """Human-readable flight summary: per-kind counts plus the last events."""
    from repro.util.tables import format_table

    events = recorder.events()
    counts: dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    count_rows = [(kind, str(n)) for kind, n in sorted(counts.items())]
    title = (
        f"flight recorder — {len(events)} events retained, "
        f"{recorder.dropped} dropped (capacity {recorder.capacity})"
    )
    parts = [
        format_table(
            ["event kind", "count"],
            count_rows,
            title=title,
        )
    ]
    if events:
        tail_rows = [
            (
                str(ev.seq),
                f"{ev.t * 1e3:10.3f}",
                ev.kind,
                ", ".join(f"{k}={v}" for k, v in sorted(ev.data.items())),
            )
            for ev in events[-tail:]
        ]
        parts.append(
            format_table(
                ["seq", "t ms", "kind", "data"],
                tail_rows,
                title=f"last {len(tail_rows)} events",
            )
        )
    return "\n\n".join(parts)
