"""Live flight-event streaming: a fan-out bus over the flight recorder.

The flight recorder (:mod:`repro.obs.recorder`) is a bounded ring — a
post-hoc record.  This module makes the same events *observable while
they happen*: a :class:`FlightTap` attached to a
:class:`~repro.obs.recorder.FlightRecorder` receives every emitted event
(decisions and span ``.start``/``.end`` events alike)
and fans it out to any number of :class:`TapSubscription` queues, each
bounded with drop-oldest backpressure and a per-subscriber drop count
(a slow consumer loses *its own* oldest events, never anyone else's and
never the ring's).

The design constraint is the same as the recorder's: the hot path must
stay cheap enough to leave on permanently.  With no subscribers a tap
costs one empty-tuple truthiness check per event (``publish`` returns
immediately); subscribing is what buys the fan-out work.  The
``obs.tap_overhead`` bench phase holds the no-subscriber path to the
regression gate.

Wiring: :meth:`FlightRecorder.attach_tap` publishes from inside the
recorder's emit lock, so every subscriber sees events in exact ``seq``
order even when multiple worker threads share a ring.  Attach a tap to
the ring a run records into — every :class:`~repro.serve.session.Session`
owns one tap on its own ring — and any live run is tappable::

    session = Session("s00001", spec)
    with session.tap.subscribe() as sub:
        session.advance()
        for event in sub.drain():
            ...

This module performs no clock reads of its own; timestamps come from
the recorder that publishes into the tap.
"""

from __future__ import annotations

import threading
from collections import deque
from types import TracebackType

from repro.obs.recorder import FlightEvent

__all__ = ["DEFAULT_SUBSCRIBER_CAPACITY", "FlightTap", "TapSubscription"]

#: default per-subscriber queue size — a few hundred adaptation points of
#: events; a consumer further behind than this starts losing *its* oldest
DEFAULT_SUBSCRIBER_CAPACITY = 1024


class TapSubscription:
    """One subscriber's bounded event queue (drop-oldest, with a count).

    Obtained from :meth:`FlightTap.subscribe`; usable as a context
    manager so tests and streamers never leak a live subscription.
    ``drain`` hands back everything queued since the last drain, oldest
    first; ``dropped`` counts the events this subscriber lost to its own
    bounded queue — silent loss is the one thing a tap must not hide.
    """

    def __init__(self, tap: FlightTap, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._tap = tap
        self._queue: deque[FlightEvent] = deque()
        self._dropped = 0
        self._received = 0
        self._lock = threading.Lock()
        self.closed = False

    # -- producer side (called by the tap) -------------------------------

    def _offer(self, event: FlightEvent) -> None:
        with self._lock:
            if self.closed:
                return
            if len(self._queue) >= self.capacity:
                self._queue.popleft()
                self._dropped += 1
            self._queue.append(event)
            self._received += 1

    # -- consumer side ----------------------------------------------------

    def drain(self) -> list[FlightEvent]:
        """Everything queued since the last drain, oldest first."""
        with self._lock:
            out = list(self._queue)
            self._queue.clear()
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def dropped(self) -> int:
        """Events this subscriber lost to its bounded queue."""
        with self._lock:
            return self._dropped

    @property
    def received(self) -> int:
        """Events ever offered to this subscriber (queued + dropped)."""
        with self._lock:
            return self._received

    def close(self) -> None:
        """Detach from the tap; idempotent.  Queued events stay drainable."""
        self._tap._unsubscribe(self)
        with self._lock:
            self.closed = True

    def __enter__(self) -> TapSubscription:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


class FlightTap:
    """Fans one recorder's events out to bounded subscriber queues.

    Attach to any :class:`~repro.obs.recorder.FlightRecorder` with
    :meth:`~repro.obs.recorder.FlightRecorder.attach_tap`; every event the
    ring records is then offered to every live subscription.  One tap
    may be attached to several recorders (a fleet-wide firehose) and one
    recorder may carry several taps; both directions are idempotent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: immutable snapshot, swapped under the lock — ``publish`` reads
        #: it without locking, which is what keeps the idle path free
        self._subscriptions: tuple[TapSubscription, ...] = ()
        self._published = 0
        self._retired_dropped = 0

    # -- subscription management ------------------------------------------

    def subscribe(
        self, capacity: int = DEFAULT_SUBSCRIBER_CAPACITY
    ) -> TapSubscription:
        """Open a new bounded subscription receiving all future events."""
        sub = TapSubscription(self, capacity)
        with self._lock:
            self._subscriptions = (*self._subscriptions, sub)
        return sub

    def _unsubscribe(self, sub: TapSubscription) -> None:
        with self._lock:
            if sub in self._subscriptions:
                self._retired_dropped += sub.dropped
            self._subscriptions = tuple(
                s for s in self._subscriptions if s is not sub
            )

    @property
    def subscriber_count(self) -> int:
        return len(self._subscriptions)

    @property
    def published(self) -> int:
        """Events fanned out so far (0 while nobody subscribes)."""
        with self._lock:
            return self._published

    @property
    def dropped_total(self) -> int:
        """Events lost across all subscribers, past and present."""
        with self._lock:
            return self._retired_dropped + sum(
                s.dropped for s in self._subscriptions
            )

    # -- the hot path ------------------------------------------------------

    def publish(self, event: FlightEvent) -> None:
        """Offer ``event`` to every live subscription.

        Called by the owning recorder from inside its emit lock, which
        guarantees subscribers observe events in ``seq`` order.  With no
        subscribers this is a single truthiness check and a return.
        """
        subs = self._subscriptions
        if not subs:
            return
        with self._lock:
            self._published += 1
        for sub in subs:
            sub._offer(event)
