"""The recorder: one bounded ring of typed events carrying spans and decisions.

Everything the library reports about a run flows through one
:class:`FlightRecorder`:

* **events** — small structured records of *what happened* (adaptation
  points, nest insert/delete/retain, tree edit operations,
  redistribution rounds, the dynamic strategy's choice), appended by
  :meth:`FlightRecorder.emit`;
* **spans** — nestable timed regions.  Opening one emits
  ``<name>.start`` and closing it emits ``<name>.end`` into the same
  ring, so each layer's cost sits on the decisions' timeline.  The
  events' ``data`` holds only the span's tags (the timing lives in
  ``t``), which keeps a log's content a pure function of the seed.  A
  closing span also folds its duration into a per-name
  :class:`~repro.obs.stats.SpanDigest`;
* **counters** (monotonic counts such as rank pairs routed) and
  **gauges** (last values such as live nest counts).

The ring has a fixed capacity (the oldest events fall off the back) and
the digests a fixed window, so memory stays bounded however long a run
is.  Recording is always on: the ambient recorder defaults to one
process-wide ring.  Instrumented code never holds a recorder; it calls
:func:`get_recorder` at use sites, and applications scope their own
with :func:`use_recorder`::

    rec = FlightRecorder()
    with use_recorder(rec):
        run_workload(...)
    print(format_report(rec))

This module is the only place in the library (together with the rest of
``repro.obs``) allowed to read raw clocks — reprolint rule R007 enforces
that everywhere else timing flows through spans.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType
from typing import NamedTuple

from repro.obs.stats import SpanDigest

__all__ = [
    "ADAPTATION_SPAN",
    "DEFAULT_FLIGHT_CAPACITY",
    "TagValue",
    "FlightEvent",
    "SpanRecord",
    "Span",
    "FlightRecorder",
    "pair_spans",
    "get_recorder",
    "set_recorder",
    "use_recorder",
]

#: values a span tag or event field may carry (JSON-serialisable)
TagValue = str | int | float

#: name of the umbrella span the workload stepper opens around each
#: adaptation point (the step index and strategy are bound as ambient tags)
ADAPTATION_SPAN = "adaptation_point"

#: default ring size — generous for dozens of adaptation points, yet
#: bounded (~a few MiB) however long the process runs
DEFAULT_FLIGHT_CAPACITY = 4096


@dataclass(slots=True)
class FlightEvent:
    """One recorded event: a sequence number, a timestamp, a kind, data.

    ``seq`` is assigned monotonically by the owning recorder and never
    reset by ring eviction, so gaps in an exported log reveal exactly how
    many events were dropped.  ``t`` is seconds relative to the
    recorder's origin (its construction or last reset).  Events are
    records: nothing mutates one once emitted (a plain slotted class
    rather than a frozen one, because it is built on every span edge).
    """

    seq: int
    t: float
    kind: str
    data: dict[str, TagValue] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"seq": self.seq, "t": self.t, "kind": self.kind, "data": self.data},
            sort_keys=True,
        )


@dataclass(frozen=True)
class SpanRecord:
    """One span read back from the ring: a named, tagged ``[start, end)``.

    Times are seconds relative to the recorder's origin, so traces start
    near zero and export losslessly to microsecond timestamps.
    """

    name: str
    start: float
    end: float
    depth: int  # how many spans were open when this one began
    tags: dict[str, TagValue] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Scope(NamedTuple):
    """Per-context span state of one recorder: open depth, bound tags,
    and the innermost open span."""

    depth: int
    tags: dict[str, TagValue]
    top: Span | None


_ROOT_SCOPE = _Scope(0, {}, None)


class Span:
    """One open span of a :class:`FlightRecorder` (context manager)."""

    __slots__ = ("_recorder", "name", "tags", "seq", "start", "depth", "_token")

    def __init__(
        self, recorder: FlightRecorder, name: str, tags: dict[str, TagValue]
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.tags = tags
        self.seq = -1
        self.start = 0.0
        self.depth = 0
        self._token: Token[_Scope] | None = None

    def tag(self, **tags: TagValue) -> Span:
        """Attach/override tags while the span is open (they ride on
        the ``.end`` event)."""
        self.tags = {**self.tags, **tags}
        return self

    def __enter__(self) -> Span:
        recorder = self._recorder
        scope = recorder._scope.get()
        if scope.tags:
            self.tags = {**scope.tags, **self.tags}
        self.depth = scope.depth
        self._token = recorder._scope.set(_Scope(scope.depth + 1, scope.tags, self))
        self.start = time.perf_counter() - recorder.origin
        with recorder._lock:
            self.seq = recorder._push(self.name + ".start", self.start, self.tags)
            recorder._open[self.seq] = self.name
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        recorder = self._recorder
        end = time.perf_counter() - recorder.origin
        if recorder._scope.get().top is not self or self._token is None:
            raise RuntimeError(
                f"span {self.name!r} closed out of order (spans must nest)"
            )
        recorder._scope.reset(self._token)
        with recorder._lock:
            del recorder._open[self.seq]
            recorder._push(self.name + ".end", end, self.tags)
            digest = recorder._digests.get(self.name)
            if digest is None:
                digest = recorder._digests[self.name] = SpanDigest()
            digest.add(end - self.start)
        return None


class FlightRecorder:
    """Bounded ring of :class:`FlightEvent` plus spans, counters, gauges.

    Appends, counter and gauge updates and digest folds are thread-safe:
    one lock makes each read-modify-write atomic, so workers on
    ``asyncio.to_thread`` threads can share one ring (the process-default
    ambient one, say) without tearing the sequence numbering or losing
    increments.  The open-span stack and the :meth:`bind` tags are kept
    per context (a ``ContextVar`` whose every ``set`` is undone by a
    ``reset``), so threads and tasks sharing a ring never see each
    other's spans.  Multi-tenant code still gives each session its own
    recorder, scoped with :func:`use_recorder`, so each session's log
    stays a clean causal record.
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.origin = time.perf_counter()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._events: deque[FlightEvent] = deque(maxlen=capacity)
        self._seq = 0
        self._digests: dict[str, SpanDigest] = {}
        self._open: dict[int, str] = {}  # start seq -> name of open spans
        self._lock = threading.Lock()
        self._scope: ContextVar[_Scope] = ContextVar(
            "repro.obs.scope", default=_ROOT_SCOPE
        )

    # -- the recording surface --------------------------------------------

    def emit(self, kind: str, **data: TagValue) -> None:
        """Append one event; evicts the oldest when the ring is full."""
        t = time.perf_counter() - self.origin
        with self._lock:
            self._push(kind, t, data)

    def span(self, name: str, **tags: TagValue) -> Span:
        """A timed region: ``<name>.start``/``<name>.end`` events plus a
        duration folded into the ``name`` digest."""
        return Span(self, name, tags)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    @contextmanager
    def bind(self, **tags: TagValue) -> Iterator[None]:
        """Tag every span opened inside the ``with`` block (in this context)."""
        scope = self._scope.get()
        token = self._scope.set(scope._replace(tags={**scope.tags, **tags}))
        try:
            yield
        finally:
            self._scope.reset(token)

    def _push(self, kind: str, t: float, data: dict[str, TagValue]) -> int:
        """Append one event (caller holds the lock); returns its seq."""
        seq = self._seq
        self._events.append(FlightEvent(seq=seq, t=t, kind=kind, data=data))
        self._seq = seq + 1
        return seq

    # -- inspection -----------------------------------------------------

    def events(self) -> list[FlightEvent]:
        """The retained events, oldest first."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def total_emitted(self) -> int:
        """How many events were ever emitted (including evicted ones)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """How many events the ring has evicted."""
        with self._lock:
            return self._seq - len(self._events)

    def digests(self) -> dict[str, SpanDigest]:
        """A consistent copy of every span name's running digest."""
        with self._lock:
            return {name: d.copy() for name, d in self._digests.items()}

    @property
    def spans(self) -> list[SpanRecord]:
        """The spans still in the ring, read back by :func:`pair_spans`
        (spans open right now are left out)."""
        with self._lock:
            events = list(self._events)
            still_open = set(self._open)
        return pair_spans(events, still_open)

    def reset(self) -> None:
        """Drop everything recorded and restart the clock and the sequence."""
        with self._lock:
            if self._open:
                open_names = list(self._open.values())
                raise RuntimeError(f"cannot reset with open spans: {open_names}")
            self._events.clear()
            self._seq = 0
            self._digests.clear()
            self.counters.clear()
            self.gauges.clear()
            self.origin = time.perf_counter()

    # -- JSONL export ---------------------------------------------------

    def to_jsonl(self) -> str:
        """The retained events as JSON Lines (one event per line)."""
        return "".join(ev.to_json() + "\n" for ev in self.events())

    def write_jsonl(self, path: str | Path) -> Path:
        """Serialise the ring to ``path``; returns the path."""
        out = Path(path)
        out.write_text(self.to_jsonl(), encoding="utf-8")
        return out


def pair_spans(
    events: Iterable[FlightEvent], still_open: Iterable[int] = ()
) -> list[SpanRecord]:
    """Read spans back from a run of events.

    Pairing rule: an event whose kind ends in ``.start`` opens a span
    named after the prefix; the next event with the matching ``.end``
    kind closes the innermost such span (tags merged, the start's
    winning on clashes).  An ``.end`` whose start is gone (evicted from
    the ring) becomes a zero-duration span named after its kind; a
    ``.start`` that never closed (the run stopped mid-flight) becomes a
    zero-duration span tagged ``unclosed=1`` — unless its seq is in
    ``still_open``.  Other events are not spans.  Spans come out in
    completion order.
    """
    skip = set(still_open)
    spans: list[SpanRecord] = []
    open_starts: list[FlightEvent] = []
    for event in events:
        kind = event.kind
        if kind.endswith(".start"):
            open_starts.append(event)
            continue
        if not kind.endswith(".end"):
            continue
        prefix = kind[: -len(".end")]
        target = prefix + ".start"
        for i in range(len(open_starts) - 1, -1, -1):
            if open_starts[i].kind == target:
                match = open_starts.pop(i)
                spans.append(
                    SpanRecord(
                        name=prefix,
                        start=match.t,
                        end=event.t,
                        depth=len(open_starts),
                        tags={**event.data, **match.data},
                    )
                )
                break
        else:
            spans.append(
                SpanRecord(
                    name=kind,
                    start=event.t,
                    end=event.t,
                    depth=len(open_starts),
                    tags=dict(event.data),
                )
            )
    for leftover in open_starts:
        if leftover.seq in skip:
            continue
        spans.append(
            SpanRecord(
                name=leftover.kind[: -len(".start")],
                start=leftover.t,
                end=leftover.t,
                depth=0,
                tags={**leftover.data, "unclosed": 1},
            )
        )
    return spans


#: the ambient recorder — always on, bounded by construction.  A
#: ContextVar rather than a module global so concurrent workers (asyncio
#: tasks, threads with copied contexts) each see their own recorder
#: (reprolint R013); the default ring is shared process-wide until
#: somebody scopes one.
_ACTIVE: ContextVar[FlightRecorder] = ContextVar(
    "repro.obs.recorder", default=FlightRecorder()
)


def get_recorder() -> FlightRecorder:
    """The ambient recorder (an always-on bounded ring by default)."""
    return _ACTIVE.get()


def set_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Install ``recorder`` as the ambient one; returns the previous."""
    previous = _ACTIVE.get()
    _ACTIVE.set(recorder)
    return previous


@contextmanager
def use_recorder(recorder: FlightRecorder) -> Iterator[FlightRecorder]:
    """Scope ``recorder`` as the ambient one, restoring the previous on exit."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
