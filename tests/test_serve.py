"""Unit and integration tests of the serving tier (no sockets here).

The cross-session isolation regression in ``TestSessionIsolation`` is
the load-bearing one: interleaving two same-spec sessions step by step
must produce *bit-identical* flight logs to running each alone, which
fails immediately if any fixture (simulator, ledger, recorder, RNG)
leaks between sessions.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import pytest

from repro.obs import (
    FlightEvent,
    FlightRecorder,
    aggregate_fleet,
    fleet_metrics,
    parse_prometheus,
    render_prometheus,
)
from repro.serve import (
    ScenarioSpec,
    SchedulerConfig,
    ServiceHealth,
    Session,
    SessionError,
    SessionKilled,
    SessionScheduler,
    SessionState,
    SessionStore,
    StoreFull,
    flight_signature,
)
import repro.perfmodel.exectime as exectime
from repro.obs.stats import DIGEST_BUCKETS
from repro.obs.webui import replay_frames
from repro.serve.loadgen import LoadgenConfig, run_loadgen


class TestScenarioSpec:
    def test_defaults_valid(self):
        spec = ScenarioSpec()
        assert spec.workload == "synthetic"
        assert spec.steps >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workload": "bogus"},
            {"machine": "cray-1"},
            {"strategy": "telepathy"},
            {"steps": 0},
            {"priority": -1},
            {"kernels": "quantum"},
            {"seed": -1},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict(kwargs)

    @pytest.mark.parametrize("legacy", ["vector", "reference"])
    def test_from_dict_drops_legacy_kernels_key(self, legacy):
        # specs journaled while the kernel-mode switch existed carry it
        spec = ScenarioSpec(seed=7, steps=9)
        assert ScenarioSpec.from_dict({**spec.to_dict(), "kernels": legacy}) == spec
        assert "kernels" not in spec.to_dict()

    def test_dict_roundtrip(self):
        spec = ScenarioSpec(seed=7, steps=9, strategy="scratch", priority=2)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown spec field"):
            ScenarioSpec.from_dict({"stepz": 3})

    def test_from_dict_rejects_wrong_types(self):
        with pytest.raises(ValueError, match="must be int"):
            ScenarioSpec.from_dict({"steps": "many"})
        with pytest.raises(ValueError, match="must be an int"):
            ScenarioSpec.from_dict({"steps": True})


class TestSessionLifecycle:
    def test_runs_to_done(self):
        session = Session("t1", ScenarioSpec(steps=4))
        while not session.terminal:
            session.advance()
        assert session.state is SessionState.DONE
        assert session.steps_completed == 4
        assert session.snapshot()["decisions"] == 4
        states = [t.state for t in session.transitions]
        assert states == ["running", "done"]

    def test_pause_resume(self):
        session = Session("t2", ScenarioSpec(steps=3))
        session.advance()
        session.pause()
        with pytest.raises(SessionError, match="cannot advance"):
            session.advance()
        session.resume()
        session.advance()
        assert session.steps_completed == 2

    def test_illegal_transitions_raise(self):
        session = Session("t3", ScenarioSpec(steps=2))
        with pytest.raises(SessionError):
            session.resume()  # PENDING -> RUNNING only via start
        while not session.terminal:
            session.advance()
        with pytest.raises(SessionError):
            session.pause()  # DONE is terminal
        with pytest.raises(SessionError, match="cannot advance"):
            session.advance()

    def test_injected_crash_fails_the_session(self):
        session = Session("t4", ScenarioSpec(steps=6))
        session.advance()
        at = session.inject_fault(rank=5)
        assert at == 1
        with pytest.raises(SessionKilled, match="rank 5"):
            session.advance()
        assert session.state is SessionState.FAILED
        assert "rank 5" in session.error
        kinds = [e.kind for e in session.events()]
        assert "fault.inject" in kinds
        with pytest.raises(SessionError):
            session.inject_fault()  # terminal sessions take no more faults

    def test_snapshot_shape(self):
        session = Session("t5", ScenarioSpec(steps=2, seed=3))
        session.advance()
        snap = session.snapshot()
        assert snap["id"] == "t5"
        assert snap["state"] == "running"
        assert snap["steps_completed"] == 1
        assert snap["steps_total"] == 2
        assert snap["spec"]["seed"] == 3


class TestSessionIsolation:
    """Satellite 1: no shared mutable fixtures between sessions."""

    def _sequential_signature(self, spec: ScenarioSpec):
        session = Session("seq", spec)
        session.run_to_completion()
        return flight_signature(session.events())

    def test_interleaved_equals_sequential(self):
        spec_a = ScenarioSpec(seed=11, steps=6)
        spec_b = ScenarioSpec(seed=22, steps=6, strategy="scratch")
        expected_a = self._sequential_signature(spec_a)
        expected_b = self._sequential_signature(spec_b)

        a, b = Session("a", spec_a), Session("b", spec_b)
        while not (a.terminal and b.terminal):  # strict alternation
            if not a.terminal:
                a.advance()
            if not b.terminal:
                b.advance()

        assert flight_signature(a.events()) == expected_a
        assert flight_signature(b.events()) == expected_b

    def test_same_spec_twice_interleaved_bit_identical(self):
        spec = ScenarioSpec(seed=5, steps=5)
        expected = self._sequential_signature(spec)
        a, b = Session("a", spec), Session("b", spec)
        for _ in range(5):
            a.advance()
            b.advance()
        assert flight_signature(a.events()) == expected
        assert flight_signature(b.events()) == expected
        # the ledgers accumulated independently and identically
        assert a.ledger.sent.tolist() == b.ledger.sent.tolist()

    def test_concurrent_fleet_matches_sequential(self):
        """64 sessions in one process, spot-checked against solo runs."""
        specs = [ScenarioSpec(seed=100 + i, steps=2) for i in range(64)]
        store = SessionStore(capacity=64)
        for spec in specs:
            store.create(spec)
        scheduler = SessionScheduler(store, SchedulerConfig(workers=8))
        asyncio.run(scheduler.run_until_drained())
        sessions = store.sessions()
        assert len(sessions) == 64
        assert all(s.state is SessionState.DONE for s in sessions)
        assert scheduler.health.status == "ok"
        for idx in (0, 31, 63):  # spot-check determinism under concurrency
            expected = self._sequential_signature(specs[idx])
            assert flight_signature(sessions[idx].events()) == expected


class TestSessionStore:
    def test_create_get_len(self):
        store = SessionStore(capacity=4)
        s = store.create(ScenarioSpec(steps=2))
        assert len(store) == 1
        assert store.get(s.session_id) is s
        assert s.session_id in store
        with pytest.raises(KeyError):
            store.get("nope")

    def test_eviction_prefers_finished(self):
        store = SessionStore(capacity=2)
        first = store.create(ScenarioSpec(steps=1))
        first.run_to_completion()
        store.create(ScenarioSpec(steps=3))
        store.create(ScenarioSpec(steps=3))  # evicts `first`
        assert len(store) == 2
        assert first.session_id not in store
        assert store.evicted == 1

    def test_store_full_of_live_sessions_raises(self):
        store = SessionStore(capacity=2)
        store.create(ScenarioSpec(steps=3))
        store.create(ScenarioSpec(steps=3))
        with pytest.raises(StoreFull):
            store.create(ScenarioSpec(steps=3))

    def test_journal_and_recovery(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        store = SessionStore(journal_path=journal)
        done = store.create(ScenarioSpec(steps=2, seed=1))
        done.run_to_completion()
        failed = store.create(ScenarioSpec(steps=4, seed=2))
        failed.advance()
        failed.inject_fault()
        with pytest.raises(SessionKilled):
            failed.advance()
        running = store.create(ScenarioSpec(steps=4, seed=3))
        running.advance()

        recovered = SessionStore.recover(journal)
        assert len(recovered) == 3
        r_done = recovered.get(done.session_id)
        assert r_done.state is SessionState.DONE and r_done.recovered
        r_failed = recovered.get(failed.session_id)
        assert r_failed.state is SessionState.FAILED
        assert "rank 0" in r_failed.error
        r_running = recovered.get(running.session_id)
        assert r_running.state is SessionState.PENDING  # will re-run from scratch
        assert r_running.recovered
        assert r_running.spec == running.spec
        # the id counter resumes past everything journaled
        fresh = recovered.create(ScenarioSpec(steps=1))
        assert fresh.session_id not in (s.session_id for s in (done, failed, running))

    def test_recovers_journal_with_legacy_kernels_key(self, tmp_path):
        # create lines exactly as journals written before the kernel-mode
        # switch was retired carry them
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            '{"id": "s00000", "op": "create", "spec": {"kernels": "vector", '
            '"machine": "bgl-256", "priority": 0, "seed": 4, "steps": 2, '
            '"strategy": "diffusion", "workload": "synthetic"}}\n'
            '{"id": "s00000", "op": "state", "reason": "", "state": "done", '
            '"step": 2}\n'
            '{"id": "s00001", "op": "create", "spec": {"kernels": "reference", '
            '"machine": "bgl-256", "priority": 0, "seed": 5, "steps": 2, '
            '"strategy": "diffusion", "workload": "synthetic"}}\n',
            encoding="utf-8",
        )
        recovered = SessionStore.recover(journal)
        assert len(recovered) == 2
        assert recovered.get("s00000").state is SessionState.DONE
        pending = recovered.get("s00001")
        assert pending.state is SessionState.PENDING and pending.recovered
        assert pending.spec == ScenarioSpec(seed=5, steps=2)
        pending.run_to_completion()
        assert pending.state is SessionState.DONE
        # compaction rewrote the journal in the current format
        assert "kernels" not in journal.read_text(encoding="utf-8")

    def test_recovery_skips_a_spec_validation_now_rejects(self, tmp_path, caplog):
        # a journal written before negative seeds were rejected
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            '{"id": "s00000", "op": "create", "spec": {"machine": "bgl-256", '
            '"priority": 0, "seed": -1, "steps": 2, "strategy": "diffusion", '
            '"workload": "synthetic"}}\n'
            '{"id": "s00000", "op": "state", "reason": "", "state": "running", '
            '"step": 1}\n'
            '{"id": "s00001", "op": "create", "spec": {"machine": "bgl-256", '
            '"priority": 0, "seed": 5, "steps": 2, "strategy": "diffusion", '
            '"workload": "synthetic"}}\n',
            encoding="utf-8",
        )
        with caplog.at_level("WARNING", logger="repro"):
            recovered = SessionStore.recover(journal)
        assert len(recovered) == 1
        assert recovered.get("s00001").spec == ScenarioSpec(seed=5, steps=2)
        assert any("seed must be >= 0" in r.getMessage() for r in caplog.records)
        # the skipped id is never handed out again
        assert recovered.create(ScenarioSpec(steps=1)).session_id not in ("s00000", "s00001")

    def test_recovered_session_replays_identically(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        store = SessionStore(journal_path=journal)
        original = store.create(ScenarioSpec(steps=3, seed=9))
        original.advance()  # interrupted mid-run
        expected = Session("ref", original.spec)
        expected.run_to_completion()

        replayed = SessionStore.recover(journal).get(original.session_id)
        replayed.run_to_completion()
        assert flight_signature(replayed.events()) == flight_signature(
            expected.events()
        )


class TestServiceHealth:
    def test_degraded_then_recovers(self):
        health = ServiceHealth(window=4)
        assert health.status == "ok"
        health.record_ok()
        health.record_failure()
        assert health.degraded
        for _ in range(3):
            health.record_ok()
            assert health.degraded  # failure still inside the window
        health.record_ok()  # 4th success pushes the failure out
        assert health.status == "ok"
        assert health.steps_failed == 1


class TestScheduler:
    def test_priority_lane_drains_first(self):
        store = SessionStore()
        normal = store.create(ScenarioSpec(steps=1))
        urgent = store.create(ScenarioSpec(steps=1, priority=1))
        scheduler = SessionScheduler(store)
        scheduler.submit(normal)
        scheduler.submit(urgent)  # submitted later, dequeued first
        first = scheduler._queue.get_nowait()
        assert first[2] == urgent.session_id

    def test_drain_completes_all(self):
        store = SessionStore()
        for i in range(6):
            store.create(ScenarioSpec(seed=i, steps=3, priority=i % 2))
        scheduler = SessionScheduler(store, SchedulerConfig(workers=3))
        asyncio.run(scheduler.run_until_drained())
        assert all(s.state is SessionState.DONE for s in store.sessions())
        assert scheduler.steps_run == 18

    def test_killed_session_degrades_not_the_service(self):
        store = SessionStore()
        victim = store.create(ScenarioSpec(seed=1, steps=8))
        bystander = store.create(ScenarioSpec(seed=2, steps=3))
        victim.inject_fault(at_step=1)
        scheduler = SessionScheduler(store, SchedulerConfig(workers=2))
        asyncio.run(scheduler.run_until_drained())
        assert victim.state is SessionState.FAILED
        assert bystander.state is SessionState.DONE
        assert scheduler.health.steps_failed == 1


class TestLoadgen:
    def test_direct_campaign(self):
        result = run_loadgen(LoadgenConfig(sessions=5, steps=2, workers=3))
        assert result.completed == 5
        assert result.failed == 0
        assert result.steps_total == 10
        assert result.sessions_per_sec > 0
        assert result.latency is not None
        assert result.latency.count == 10
        payload = result.to_dict()
        assert payload["decision_latency"]["count"] == 10

    def test_campaign_is_seeded(self):
        specs_a = LoadgenConfig(sessions=4, seed=3).specs()
        specs_b = LoadgenConfig(sessions=4, seed=3).specs()
        assert specs_a == specs_b
        assert len({s.seed for s in specs_a}) == 4  # distinct per session


class TestObsConcurrency:
    """Satellite 2: the shared telemetry structures survive real threads."""

    def test_flight_ring_concurrent_emit(self):
        flight = FlightRecorder(capacity=100_000)
        n_threads, per_thread = 8, 500

        def emit(worker: int) -> None:
            for i in range(per_thread):
                flight.emit("stress", worker=worker, i=i)

        threads = [
            threading.Thread(target=emit, args=(w,)) for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = flight.events()
        assert len(events) == n_threads * per_thread
        assert flight.total_emitted == n_threads * per_thread
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)  # no torn/duplicated sequence numbers

    def test_recorder_concurrent_counts(self):
        recorder = FlightRecorder()
        n_threads, per_thread = 8, 2000

        def bump() -> None:
            for _ in range(per_thread):
                recorder.count("stress.hits")

        threads = [threading.Thread(target=bump) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # without the lock this read-modify-write loses increments
        assert recorder.counters["stress.hits"] == n_threads * per_thread

    def test_readers_copy_counters_while_workers_add_names(self):
        session = Session("stress", ScenarioSpec(steps=1))
        recorder = session.recorder
        n_threads, per_thread = 3, 4000
        running = threading.Barrier(n_threads + 1, timeout=30)

        def bump(worker: int) -> None:
            running.wait()
            for i in range(per_thread):
                # a fresh name grows the dict a reader may be iterating
                recorder.count(f"decision.w{worker}.{i}")

        threads = [
            threading.Thread(target=bump, args=(w,)) for w in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            running.wait()
            while any(t.is_alive() for t in threads):
                aggregate_fleet(recorders=[recorder])
                session.snapshot()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        bumps = n_threads * per_thread
        rollup = aggregate_fleet(recorders=[recorder])
        assert sum(rollup.counters.values()) == bumps
        assert session.snapshot()["decisions"] == bumps


class TestLongSessionBounded:
    """A long session's telemetry and predictor memo do not grow with the
    points it ran."""

    N_POINTS = 160
    EARLY = 80
    MEMO_LIMIT = 16  # below the session's 77 distinct nest sizes: binding

    def _telemetry(self, session: Session, points: int) -> tuple[set, set]:
        recorder = session.recorder
        # the ring wrapped long ago: every bound below is binding
        assert recorder.dropped > 0
        assert len(recorder) <= recorder.capacity
        assert len(recorder.spans) <= recorder.capacity // 2
        digests = recorder.digests()
        # a rollup merges a fixed number of bucket counts per digest
        assert all(len(d.buckets) == DIGEST_BUCKETS for d in digests.values())
        assert session.snapshot()["decisions"] == points
        assert len(session.context.predictor._profile_cache) <= self.MEMO_LIMIT
        samples = parse_prometheus(
            render_prometheus(fleet_metrics(aggregate_fleet(recorders=[recorder])))
        )
        assert ({"name": "adaptation_point"}, float(points)) in samples[
            "repro_fleet_span_seconds_count"
        ]
        assert ({"chosen": "diffusion"}, float(points)) in samples[
            "repro_fleet_decisions_total"
        ]
        return set(digests), set(recorder.counters)

    def test_telemetry_at_point_80_matches_point_160(self, monkeypatch):
        monkeypatch.setattr(exectime, "_PROFILE_CACHE_LIMIT", self.MEMO_LIMIT)
        session = Session(
            "long", ScenarioSpec(steps=self.N_POINTS, machine="bgl-256")
        )
        names = {}
        for point in range(1, self.N_POINTS + 1):
            session.advance()
            if point in (self.EARLY, self.N_POINTS):
                names[point] = self._telemetry(session, point)
        assert session.state is SessionState.DONE
        assert names[self.EARLY] == names[self.N_POINTS]


class TestJournalCrashConsistency:
    """The journal must survive the ways processes actually die."""

    def _seed_journal(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        store = SessionStore(journal_path=journal)
        done = store.create(ScenarioSpec(steps=1, seed=1))
        done.run_to_completion()
        tail = store.create(ScenarioSpec(steps=3, seed=2))
        return journal, done, tail

    def test_truncated_tail_is_skipped_and_counted(self, tmp_path):
        journal, done, tail = self._seed_journal(tmp_path)
        raw = journal.read_bytes()
        journal.write_bytes(raw[:-7])  # process died mid-append of the last record

        recovered = SessionStore.recover(journal, compact=False)
        assert recovered.journal_skipped_lines == 1
        # the half-written record was `tail`'s create: that session is the
        # expected loss, everything before it survives intact
        assert len(recovered) == 1
        assert tail.session_id not in recovered
        assert recovered.get(done.session_id).state is SessionState.DONE

    def test_midfile_corruption_is_refused(self, tmp_path):
        journal, _, _ = self._seed_journal(tmp_path)
        lines = journal.read_text(encoding="utf-8").splitlines()
        lines[0] = '{"op": "create", "id": "s000'  # damage *before* good lines
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="mid-file corruption"):
            SessionStore.recover(journal)

    def test_recovery_compacts_the_damage_away(self, tmp_path):
        journal, _, _ = self._seed_journal(tmp_path)
        raw = journal.read_bytes()
        journal.write_bytes(raw[:-7])

        first = SessionStore.recover(journal)  # compact=True by default
        assert first.journal_skipped_lines == 1
        second = SessionStore.recover(journal, compact=False)
        assert second.journal_skipped_lines == 0
        assert len(second) == len(first)

    def test_compact_rewrites_to_minimal_state(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        store = SessionStore(journal_path=journal)
        done = store.create(ScenarioSpec(steps=2, seed=1))
        done.run_to_completion()
        pending = store.create(ScenarioSpec(steps=2, seed=2))
        grown = len(journal.read_text(encoding="utf-8").splitlines())

        records = store.compact()
        # one counter + two creates + one state (PENDING writes no state)
        assert records == 4
        assert records <= grown
        assert len(journal.read_text(encoding="utf-8").splitlines()) == records

        recovered = SessionStore.recover(journal, compact=False)
        assert recovered.get(done.session_id).state is SessionState.DONE
        assert recovered.get(pending.session_id).state is SessionState.PENDING

    def test_id_counter_survives_compaction(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        store = SessionStore(journal_path=journal)
        taken = [store.create(ScenarioSpec(steps=1, seed=i)) for i in range(3)]
        for session in taken:
            session.run_to_completion()
        store.compact()

        recovered = SessionStore.recover(journal)
        fresh = recovered.create(ScenarioSpec(steps=1))
        assert fresh.session_id not in {s.session_id for s in taken}


class TestSupervisedScheduler:
    def test_crashed_worker_restarts_and_fleet_completes(self):
        async def scenario() -> SessionScheduler:
            store = SessionStore()
            for i in range(4):
                store.create(ScenarioSpec(seed=i, steps=3))
            scheduler = SessionScheduler(
                store, SchedulerConfig(workers=2, backoff_scale=0.001)
            )
            scheduler.submit_all_pending()
            await scheduler.start()
            while scheduler.steps_run == 0:  # let the fleet get going
                await asyncio.sleep(0.001)
            scheduler.crash_worker(0)
            try:
                await asyncio.wait_for(scheduler.drain(), timeout=30)
            finally:
                await scheduler.stop()
            return scheduler

        scheduler = asyncio.run(scenario())
        assert scheduler.worker_restarts == 1
        assert all(
            s.state is SessionState.DONE for s in scheduler.store.sessions()
        )

    def test_spent_restart_budget_abandons_the_slot(self):
        async def scenario() -> SessionScheduler:
            store = SessionStore()
            for i in range(3):
                store.create(ScenarioSpec(seed=i, steps=2))
            scheduler = SessionScheduler(
                store,
                SchedulerConfig(
                    workers=2, backoff_scale=0.001, max_worker_restarts=0
                ),
            )
            scheduler.submit_all_pending()
            await scheduler.start()
            while scheduler.steps_run == 0:
                await asyncio.sleep(0.001)
            scheduler.crash_worker(0)
            try:
                # the surviving worker must keep the queue draining alone
                await asyncio.wait_for(scheduler.drain(), timeout=30)
            finally:
                await scheduler.stop()
            return scheduler

        scheduler = asyncio.run(scenario())
        assert scheduler.worker_restarts == 0
        # the dead slot is never restarted, so the one session it may have
        # held mid-step is parked (no restart -> no re-queue); everything
        # else still completes
        parked = [
            s
            for s in scheduler.store.sessions()
            if s.state is not SessionState.DONE
        ]
        assert len(parked) <= 1


def _sim_signature(session: Session | list[FlightEvent]):
    """Flight signature restricted to simulation events: lifecycle
    (``session.*``) events legitimately differ between a straight run and
    a hibernated one."""
    events = session if isinstance(session, list) else session.events()
    return flight_signature([e for e in events if not e.kind.startswith("session.")])


class TestHibernation:
    """Idle-session hibernation: drop fixtures, replay them back."""

    def test_hibernate_requires_paused(self):
        session = Session("h1", ScenarioSpec(steps=3))
        with pytest.raises(SessionError, match="can only hibernate"):
            session.hibernate()  # PENDING
        session.advance()
        with pytest.raises(SessionError, match="can only hibernate"):
            session.hibernate()  # RUNNING
        session.pause()
        assert session.hibernate() is True
        assert session.hibernate() is False  # already dropped: no-op

    def test_hibernate_drops_and_flags_state(self):
        session = Session("h2", ScenarioSpec(steps=4, seed=5))
        session.advance()
        session.advance()
        session.pause()
        assert session.hibernate() is True
        assert session.hibernated
        assert session._stepper is None
        assert session.steps_completed == 2  # survives the drop
        snap = session.snapshot()
        assert snap["hibernated"] is True
        assert snap["steps_completed"] == 2

    def test_resume_rematerializes_bit_identically(self):
        spec = ScenarioSpec(steps=6, seed=17)
        twin = Session("straight", spec)
        twin.run_to_completion()

        session = Session("hib", spec)
        session.advance()
        session.advance()
        session.advance()
        session.pause()
        session.hibernate()
        session.resume()
        session.run_to_completion()

        assert session.state is SessionState.DONE
        assert not session.hibernated
        assert session.steps_completed == twin.steps_completed
        assert _sim_signature(session) == _sim_signature(twin)
        assert session.snapshot().get("measured_redist_total") == twin.snapshot().get(
            "measured_redist_total"
        )
        kinds = [e.kind for e in session.events()]
        assert "session.rematerialize" in kinds

    def test_seq_cursor_follower_reads_each_event_once(self):
        # the ring outlives hibernation, so a follower reading it by seq
        # cursor sees every event once, in one unbroken numbering
        spec = ScenarioSpec(steps=6, seed=17)
        twin = Session("straight", spec)
        twin.run_to_completion()

        session = Session("hib", spec)
        followed: list[FlightEvent] = []

        def advance_and_poll() -> None:
            session.advance()
            followed.extend(session.events(since_seq=len(followed)))

        for _ in range(3):
            advance_and_poll()
        session.pause()
        session.hibernate()
        session.resume()
        while not session.terminal:
            advance_and_poll()

        assert [e.seq for e in followed] == list(range(len(followed)))
        assert _sim_signature(followed) == _sim_signature(twin)
        assert session.snapshot()["decisions"] == 6
        kinds = {e.kind for e in followed}
        assert {"session.hibernate", "session.rematerialize"} <= kinds
        frames = replay_frames(followed)
        assert len(frames) == 6
        assert all(frame["unknown"] == {} for frame in frames)

    def test_hibernate_twice_along_the_way(self):
        spec = ScenarioSpec(steps=5, seed=23)
        twin = Session("straight", spec)
        twin.run_to_completion()

        session = Session("hib2", spec)
        for stop in (1, 3):
            while session.steps_completed < stop:
                session.advance()
            session.pause()
            assert session.hibernate() is True
            session.resume()
        session.run_to_completion()
        assert _sim_signature(session) == _sim_signature(twin)

    def test_store_ttl_sweep(self):
        store = SessionStore()
        idle = store.create(ScenarioSpec(steps=4, seed=1))
        busy = store.create(ScenarioSpec(steps=4, seed=2))
        idle.advance()
        idle.pause()
        busy.advance()
        # not yet past the TTL: paused at tick 0, ttl 2 needs > 2 ticks
        for _ in range(2):
            store.tick()
        assert store.hibernate_idle(2) == []
        store.tick()
        assert store.hibernate_idle(2) == [idle.session_id]
        assert idle.hibernated
        assert not busy.hibernated  # RUNNING sessions are never candidates
        assert store.hibernated_total == 1
        # one sweep per idle spell: the timer is disarmed until a re-pause
        store.tick()
        assert store.hibernate_idle(0) == []
        idle.resume()
        idle.advance()
        idle.pause()  # re-arms the idle timer at the current tick
        store.tick()
        assert store.hibernate_idle(0) == [idle.session_id]
        assert store.hibernated_total == 2
        idle.resume()
        idle.run_to_completion()
        assert idle.state is SessionState.DONE

    def test_store_ttl_validation(self):
        store = SessionStore()
        with pytest.raises(ValueError, match="ttl"):
            store.hibernate_idle(-1)

    def test_scheduler_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(hibernate_ttl=-1)
        assert SchedulerConfig(hibernate_ttl=None).hibernate_ttl is None
        assert SchedulerConfig(hibernate_ttl=0).hibernate_ttl == 0

    def test_scheduler_sweeps_idle_sessions(self):
        store = SessionStore()
        idle = store.create(ScenarioSpec(steps=6, seed=3))
        idle.advance()
        idle.pause()
        for i in range(4):
            store.create(ScenarioSpec(steps=2, seed=10 + i))
        scheduler = SessionScheduler(
            store, SchedulerConfig(workers=2, hibernate_ttl=0)
        )
        asyncio.run(scheduler.run_until_drained())
        assert idle.hibernated
        assert store.hibernated_total == 1
        # the hibernated session still resumes and finishes cleanly
        idle.resume()
        idle.run_to_completion()
        assert idle.state is SessionState.DONE
