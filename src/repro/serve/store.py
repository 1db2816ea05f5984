"""The session registry: id allocation, capacity, journal, recovery.

The store is the single place the service keeps sessions.  It hands out
monotonic ids, enforces a capacity bound (evicting the oldest *finished*
session when full — live tenants are never evicted), and appends every
create and state transition to an optional JSONL journal so a crashed
process can be reconstructed with :meth:`SessionStore.recover`:

* terminal sessions (``done``/``failed``) come back in their journaled
  state, flagged ``recovered`` (their telemetry is gone — only the
  outcome survives);
* non-terminal sessions come back as fresh ``pending`` sessions, because
  a :class:`~repro.serve.session.ScenarioSpec` deterministically
  reproduces the run — re-running from the start is both correct and
  bit-identical.

Journal appends happen from worker threads (a session transitions inside
``asyncio.to_thread``), so the store serialises its mutations with a
lock.

Crash consistency is the flight-recorder loader's: both read their file
with :func:`repro.obs.flight.read_lenient_jsonl`.  A process that dies
mid-append leaves a truncated *trailing* record, which recovery skips
and counts (``journal_skipped_lines``) — the affected session simply
replays its last transition or re-runs from its spec.  A bad line
*before* a good one cannot be explained by a crash mid-append, so it is
treated as corruption and recovery refuses to guess.  Recovery then
:meth:`~SessionStore.compact`\\ s the journal — an atomic rewrite down to
the minimal current state — so damage never survives a restart.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.obs.flight import read_lenient_jsonl
from repro.serve.session import (
    ScenarioSpec,
    Session,
    SessionError,
    SessionState,
    _Transition,
)
from repro.util.logging import get_logger

__all__ = ["SessionStore", "StoreFull"]

log = get_logger("serve.store")

#: default maximum number of sessions held at once
DEFAULT_CAPACITY = 256


class StoreFull(RuntimeError):
    """The store is at capacity and every session is still live."""


class SessionStore:
    """In-memory session registry with an append-only JSONL journal."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        journal_path: str | Path | None = None,
        flight_capacity: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.journal_path = Path(journal_path) if journal_path is not None else None
        self.flight_capacity = flight_capacity
        self._sessions: dict[str, Session] = {}  # insertion order = age order
        self._next_id = 0
        self._lock = threading.Lock()
        # journal appends also arrive from worker threads (transitions fire
        # inside asyncio.to_thread), so they get their own lock
        self._journal_lock = threading.Lock()
        self.evicted = 0
        #: truncated trailing journal lines skipped by the last recovery
        self.journal_skipped_lines = 0
        #: the store's monotonic idle clock: one tick per completed fleet
        #: adaptation point (never wall time — reprolint R007), advanced
        #: by the scheduler via :meth:`tick`
        self.ticks = 0
        #: sessions hibernated by :meth:`hibernate_idle` over the lifetime
        self.hibernated_total = 0
        #: session id -> tick at which it entered PAUSED (maintained by
        #: the transition observer; read by :meth:`hibernate_idle`)
        self._idle_since: dict[str, int] = {}

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def get(self, session_id: str) -> Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"no such session: {session_id!r}") from None

    def sessions(self) -> list[Session]:
        """Every stored session, oldest first."""
        return list(self._sessions.values())

    def live(self) -> list[Session]:
        """Sessions that are not yet terminal, oldest first."""
        return [s for s in self._sessions.values() if not s.terminal]

    def counts(self) -> dict[str, int]:
        """How many sessions are in each lifecycle state."""
        out = {state.value: 0 for state in SessionState}
        for session in self._sessions.values():
            out[session.state.value] += 1
        return out

    # -- mutation --------------------------------------------------------

    def create(self, spec: ScenarioSpec, session_id: str | None = None) -> Session:
        """Register a new session for ``spec`` (evicting a finished one if full)."""
        with self._lock:
            if session_id is None:
                session_id = f"s{self._next_id:05d}"
            if session_id in self._sessions:
                raise ValueError(f"session id {session_id!r} already exists")
            self._next_id += 1
            if len(self._sessions) >= self.capacity:
                self._evict_one_locked()
            kwargs: dict[str, int] = {}
            if self.flight_capacity is not None:
                kwargs["flight_capacity"] = self.flight_capacity
            session = Session(session_id, spec, **kwargs)
            session.observer = self._on_transition
            self._sessions[session_id] = session
            self._append_journal(
                {"op": "create", "id": session_id, "spec": spec.to_dict()}
            )
            return session

    def remove(self, session_id: str) -> Session:
        """Drop a session from the store (its journal history remains)."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            self._idle_since.pop(session_id, None)
        if session is None:
            raise KeyError(f"no such session: {session_id!r}")
        return session

    # -- idle hibernation -------------------------------------------------

    def tick(self) -> int:
        """Advance the idle clock by one beat; returns the new tick count.

        The scheduler calls this once per completed adaptation point, so
        "idle for N ticks" means "paused while the fleet made N steps of
        progress" — a deterministic logical clock, never wall time.
        """
        with self._lock:
            self.ticks += 1
            return self.ticks

    def hibernate_idle(self, ttl: int) -> list[str]:
        """Hibernate every session PAUSED for more than ``ttl`` ticks.

        Their simulation state is dropped (:meth:`Session.hibernate`);
        the sessions stay registered and re-materialise deterministically
        on their next post-resume advance.  Returns the ids hibernated,
        sorted.  A session that resumed between the candidate scan and
        the hibernate call is skipped, not an error.
        """
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        with self._lock:
            now = self.ticks
            candidates = [
                (sid, self._sessions[sid])
                for sid, since in self._idle_since.items()
                if now - since > ttl and sid in self._sessions
            ]
        hibernated: list[str] = []
        for sid, session in candidates:
            try:
                dropped = session.hibernate()
            except SessionError:
                continue  # resumed (or failed) under our feet
            # one sweep per idle spell: resuming re-pauses re-arm the timer
            self._idle_since.pop(sid, None)
            if dropped:
                hibernated.append(sid)
                log.info("hibernated idle session %s (ttl %d ticks)", sid, ttl)
        self.hibernated_total += len(hibernated)
        return sorted(hibernated)

    def _evict_one_locked(self) -> None:
        """Evict the oldest terminal session; raise if none is evictable."""
        for sid, session in self._sessions.items():
            if session.terminal:
                del self._sessions[sid]
                self.evicted += 1
                self._append_journal({"op": "evict", "id": sid})
                log.debug("evicted finished session %s (store full)", sid)
                return
        raise StoreFull(
            f"store holds {len(self._sessions)} live sessions "
            f"(capacity {self.capacity}); none can be evicted"
        )

    # -- journal ---------------------------------------------------------

    def _on_transition(self, session: Session, record: _Transition) -> None:
        # idle bookkeeping first (plain dict ops — no store lock here, the
        # caller already holds the session lock and hibernate_idle takes
        # the locks in the opposite order)
        if record.state == SessionState.PAUSED.value:
            self._idle_since[session.session_id] = self.ticks
        else:
            self._idle_since.pop(session.session_id, None)
        self._append_journal(
            {
                "op": "state",
                "id": session.session_id,
                "state": record.state,
                "step": record.step,
                "reason": record.reason,
            }
        )

    def _append_journal(self, entry: dict[str, object]) -> None:
        if self.journal_path is None:
            return
        line = json.dumps(entry, sort_keys=True)
        # opened per append: crash-safe and contention is negligible at
        # adaptation-point granularity
        with self._journal_lock, self.journal_path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def compact(self) -> int:
        """Atomically rewrite the journal down to the current state.

        The append-only journal grows one line per transition and keeps
        history for sessions long evicted.  Compaction rewrites it to the
        minimal equivalent: one ``counter`` record (so the id counter
        survives the loss of evicted sessions' ``create`` lines), one
        ``create`` per stored session, and one ``state`` per session that
        has left PENDING.  The rewrite goes through a temp file and
        ``os.replace``, so a crash mid-compaction leaves either the old
        or the new journal — never a mix.  Returns the number of records
        written (0 when the store has no journal).
        """
        if self.journal_path is None:
            return 0
        with self._lock:
            sessions = list(self._sessions.values())
            next_id = self._next_id
        entries: list[dict[str, object]] = [{"op": "counter", "next": next_id}]
        for session in sessions:
            entries.append(
                {
                    "op": "create",
                    "id": session.session_id,
                    "spec": session.spec.to_dict(),
                }
            )
            if session.state is SessionState.PENDING:
                continue
            step = session.transitions[-1].step if session.transitions else 0
            entries.append(
                {
                    "op": "state",
                    "id": session.session_id,
                    "state": session.state.value,
                    "step": max(step, session.steps_completed),
                    "reason": session.error,
                }
            )
        payload = "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries)
        tmp = self.journal_path.with_name(self.journal_path.name + ".compact")
        with self._journal_lock:
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, self.journal_path)
        log.info(
            "compacted journal %s to %d record(s)", self.journal_path, len(entries)
        )
        return len(entries)

    @classmethod
    def recover(
        cls,
        journal_path: str | Path,
        capacity: int = DEFAULT_CAPACITY,
        flight_capacity: int | None = None,
        compact: bool = True,
    ) -> SessionStore:
        """Rebuild a store from its journal after a process crash.

        The journal is read by :func:`repro.obs.flight.read_lenient_jsonl`,
        the flight-log loader's reader: a bad *trailing* line
        is the signature of a crash mid-append, so it is skipped and
        counted in ``journal_skipped_lines``; a bad line *before* a good
        one means the file was damaged some other way and recovery raises
        ``ValueError`` rather than silently dropping records.

        The new store journals to the same path.  With ``compact`` (the
        default) the journal is rewritten to the minimal recovered state
        so truncation damage and stale history do not survive the
        restart; pass ``compact=False`` to leave the file untouched
        (read-only inspection, benchmarks).
        """
        path = Path(journal_path)

        def parse(line: str, lineno: int) -> dict[str, object]:
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict):
                    raise ValueError("journal entry must be a JSON object")
            except ValueError as exc:  # json.JSONDecodeError included
                raise ValueError(
                    f"{path}:{lineno}: invalid journal line: {exc}"
                ) from exc
            return entry

        entries, tail = read_lenient_jsonl(path, parse)
        specs: dict[str, ScenarioSpec] = {}
        states: dict[str, tuple[SessionState, int, str]] = {}
        order: list[str] = []
        counter = 0  # restores the id counter past compaction + evictions
        created_total = 0
        for lineno, entry in entries:
            op = entry.get("op")
            if op == "counter":
                counter = max(counter, int(entry.get("next", 0)))  # type: ignore[call-overload]
                continue
            sid = entry.get("id")
            if not isinstance(sid, str):
                raise ValueError(f"{path}:{lineno}: journal entry without id")
            if op == "create":
                created_total += 1
                try:
                    specs[sid] = ScenarioSpec.from_dict(entry["spec"])  # type: ignore[arg-type]
                except ValueError as exc:
                    # a spec today's validation rejects (a journal written
                    # before it, say): drop that session, keep the rest
                    log.warning("%s:%d: skipping session %s: %s", path, lineno, sid, exc)
                    continue
                order.append(sid)
            elif op == "state":
                states[sid] = (
                    SessionState(entry["state"]),  # type: ignore[arg-type]
                    int(entry.get("step", 0)),  # type: ignore[call-overload]
                    str(entry.get("reason", "")),
                )
            elif op == "evict":
                specs.pop(sid, None)
                states.pop(sid, None)
            else:
                raise ValueError(f"{path}:{lineno}: unknown journal op {op!r}")
        # crash mid-append: the half-written tail is expected loss
        for error in tail:
            log.warning("skipping truncated journal tail: %s", error)
        skipped = len(tail)
        # journalling stays off during replay — the entries being replayed
        # are already in the file
        store = cls(capacity=capacity, journal_path=None, flight_capacity=flight_capacity)
        recovered_live = 0
        for sid in order:
            if sid not in specs:
                continue  # evicted later in the journal
            session = store.create(specs[sid], session_id=sid)
            state, step, reason = states.get(sid, (SessionState.PENDING, 0, ""))
            if state in (SessionState.DONE, SessionState.FAILED):
                session.restore(state, steps=step, error=reason)
            else:
                # non-terminal: the spec replays deterministically, so the
                # session simply starts over as PENDING
                session.recovered = True
                recovered_live += 1
        store._next_id = max(counter, created_total)
        store.journal_path = path
        store.journal_skipped_lines = skipped
        if compact and (skipped or entries):
            store.compact()
        log.info(
            "recovered %d session(s) from %s (%d will re-run, %d line(s) skipped)",
            len(store),
            path,
            recovered_live,
            skipped,
        )
        return store
