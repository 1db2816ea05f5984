"""Tests for repro.faults: plans, checkpoints, recovery, retry, soak.

The robustness contract under test: a seeded fault plan crashes ranks,
the grid shrinks past them, retained nests keep their data bit-for-bit
(surviving blocks + checkpointed regions), every invariant holds on the
shrunk allocation, and the whole path is observable in the flight log.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DiffusionStrategy,
    ProcessorReallocator,
    check_all,
    check_tiling,
    check_tree_consistency,
)
from repro.core.dataplane import (
    BackoffPolicy,
    RankStore,
    RedistributionAbortedError,
    RetryOutcome,
    TransientRedistributionError,
    execute_redistribution_with_retry,
    gather_nest,
    scatter_nest,
)
from repro.faults import (
    SUITES,
    Checkpoint,
    FaultInjector,
    FaultPlan,
    HealthView,
    LinkFault,
    RankCrash,
    RankStraggler,
    RecoveryError,
    SoakConfig,
    SplitFileFault,
    format_soak_report,
    plan_shrink,
    run_soak,
)
from repro.grid import ProcessorGrid
from repro.mpisim import CostModel, NetworkSimulator
from repro.mpisim.ledger import CommLedger
from repro.obs import FlightRecorder, use_recorder
from repro.perfmodel import ExecTimePredictor, ExecutionOracle, ProfileTable
from repro.topology import blue_gene_l, fist_cluster
from repro.util.rng import make_rng

_PREDICTOR = ExecTimePredictor(ProfileTable(ExecutionOracle()))


def make_reallocator(ncores=16):
    return ProcessorReallocator(
        fist_cluster(ncores), DiffusionStrategy(), _PREDICTOR
    )


def field_for(nid, nx, ny):
    return make_rng(977 + 31 * nid).normal(size=(ny, nx))


def stepped_reallocator(nests, ncores=16):
    """A reallocator after one step, plus a store holding every nest."""
    realloc = make_reallocator(ncores)
    realloc.step(nests)
    store = RankStore(realloc.grid.nprocs)
    for nid, (nx, ny) in nests.items():
        scatter_nest(store, nid, field_for(nid, nx, ny), realloc.allocation)
    return realloc, store


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_at_step_preserves_plan_order(self):
        plan = FaultPlan(
            (RankCrash(2, 5), LinkFault(2, 0, 0.5), RankCrash(3, 1))
        )
        assert plan.at_step(2) == [RankCrash(2, 5), LinkFault(2, 0, 0.5)]
        assert plan.at_step(9) == []
        assert plan.n_faults == 3
        assert plan.last_step == 3

    def test_duplicate_crash_rejected(self):
        with pytest.raises(ValueError, match="crashes more than once"):
            FaultPlan((RankCrash(1, 5), RankCrash(4, 5)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RankCrash(-1, 0)
        with pytest.raises(ValueError):
            LinkFault(0, 0, 0.0)
        with pytest.raises(ValueError):
            RankStraggler(0, 0, 0.5)
        with pytest.raises(ValueError):
            SplitFileFault(0, 0, mode="shred")

    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, n_steps=10, nranks=16, n_crashes=3)
        b = FaultPlan.seeded(7, n_steps=10, nranks=16, n_crashes=3)
        assert a == b
        assert a != FaultPlan.seeded(8, n_steps=10, nranks=16, n_crashes=3)

    def test_seeded_never_crashes_rank_zero(self):
        for seed in range(20):
            plan = FaultPlan.seeded(seed, n_steps=8, nranks=4, n_crashes=3)
            ranks = {f.rank for f in plan.faults if isinstance(f, RankCrash)}
            assert 0 not in ranks and len(ranks) == 3
            assert all(1 <= f.step < 8 for f in plan.faults)

    def test_seeded_rejects_impossible(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(0, n_steps=1, nranks=16)
        with pytest.raises(ValueError):
            FaultPlan.seeded(0, n_steps=10, nranks=4, n_crashes=4)


# ---------------------------------------------------------------------------
# HealthView
# ---------------------------------------------------------------------------


class TestHealthView:
    def test_silent_rank_detected(self):
        hv = HealthView(4)
        hv.beat_all(0)
        hv.beat_all(1, except_ranks=frozenset({2}))
        assert hv.suspects(1) == [2]
        assert hv.detect(1) == [2]
        assert not hv.alive(2) and hv.alive(0)
        assert hv.detect(1) == []  # latched, not re-reported

    def test_grace_period(self):
        hv = HealthView(4, grace=1)
        hv.beat_all(0)
        hv.beat_all(1, except_ranks=frozenset({3}))
        assert hv.suspects(1) == []  # one silent step tolerated
        hv.beat_all(2, except_ranks=frozenset({3}))
        assert hv.suspects(2) == [3]

    def test_dead_rank_cannot_beat(self):
        hv = HealthView(2)
        hv.declare_dead(1)
        with pytest.raises(ValueError, match="declared dead"):
            hv.beat(1, 0)

    def test_rank_range_checked(self):
        hv = HealthView(2)
        with pytest.raises(ValueError):
            hv.beat(2, 0)
        with pytest.raises(ValueError):
            HealthView(0)


# ---------------------------------------------------------------------------
# plan_shrink / RankRemap
# ---------------------------------------------------------------------------


class TestPlanShrink:
    def test_drops_exactly_the_dead_rows(self):
        grid = ProcessorGrid(4, 4)
        new_grid, remap = plan_shrink(grid, frozenset({5}))  # row 1
        assert (new_grid.px, new_grid.py) == (4, 3)
        # logical row j of the new grid is physical row rows[j] of the old
        assert remap.rows == (0, 2, 3)

    def test_every_row_dead_is_unrecoverable(self):
        grid = ProcessorGrid(2, 2)
        with pytest.raises(RecoveryError, match="cannot shrink"):
            plan_shrink(grid, frozenset({0, 3}))

    def test_out_of_range_rank_rejected(self):
        with pytest.raises(ValueError):
            plan_shrink(ProcessorGrid(2, 2), frozenset({4}))


# ---------------------------------------------------------------------------
# Checkpoint
# ---------------------------------------------------------------------------


class TestCheckpoint:
    def test_take_then_restore_is_bit_for_bit(self):
        nests = {1: (32, 32), 2: (24, 40)}
        realloc, store = stepped_reallocator(nests)
        ckpt = Checkpoint.take(0, realloc.allocation, nests, store)
        for nid, (nx, ny) in nests.items():
            assert np.array_equal(ckpt.fields[nid], field_for(nid, nx, ny))

    def test_checkpoint_survives_live_mutation(self):
        nests = {1: (32, 32)}
        realloc, store = stepped_reallocator(nests)
        ckpt = Checkpoint.take(0, realloc.allocation, nests, store)
        blk, _ = store.get(next(iter(store.holders(1))), 1)
        blk[:] = -1.0  # corrupt the live store in place
        assert np.array_equal(ckpt.fields[1], field_for(1, 32, 32))

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValueError, match="field shape"):
            Checkpoint(
                step=0,
                grid=(2, 2),
                tree=None,
                nest_sizes={1: (4, 4)},
                weights={},
                fields={1: np.zeros((3, 4))},
            )


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


class TestRecovery:
    NESTS = {1: (32, 32), 2: (32, 32), 3: (24, 40)}

    def _dead_rank_for(self, realloc, nid):
        """A rank holding one of ``nid``'s blocks, not in grid row 0."""
        rect = realloc.allocation.rect_of(nid)
        ranks = sorted(int(r) for r in realloc.grid.ranks_in(rect))
        candidates = [r for r in ranks if r // realloc.grid.px != 0]
        return candidates[0] if candidates else ranks[-1]

    def test_recovery_with_checkpoint_keeps_every_nest(self):
        realloc, store = stepped_reallocator(self.NESTS)
        ckpt = Checkpoint.take(0, realloc.allocation, self.NESTS, store)
        dead = self._dead_rank_for(realloc, 1)
        result = realloc.handle_rank_failure([dead], store=store, checkpoint=ckpt)
        assert result.dropped_nests == ()
        assert set(result.retained_nests) == set(self.NESTS)
        assert result.new_grid.py < result.old_grid.py
        assert result.invariants_ok
        check_tiling(result.allocation)
        check_tree_consistency(result.allocation)
        # data survives bit-for-bit, including the nest that lost blocks
        for nid, (nx, ny) in self.NESTS.items():
            assert np.array_equal(
                gather_nest(result.store, nid, nx, ny), field_for(nid, nx, ny)
            )

    def test_recovery_without_checkpoint_drops_hit_nests(self):
        realloc, store = stepped_reallocator(self.NESTS)
        dead = self._dead_rank_for(realloc, 1)
        hit = {
            nid
            for nid in self.NESTS
            if dead
            in {
                int(r)
                for r in realloc.grid.ranks_in(realloc.allocation.rect_of(nid))
            }
        }
        result = realloc.handle_rank_failure([dead], store=store)
        assert set(result.dropped_nests) == hit
        assert set(result.retained_nests) == set(self.NESTS) - hit
        check_tiling(result.allocation)
        for nid in result.retained_nests:
            nx, ny = self.NESTS[nid]
            assert np.array_equal(
                gather_nest(result.store, nid, nx, ny), field_for(nid, nx, ny)
            )

    def test_planning_only_recovery_keeps_all_nests(self):
        realloc, _ = stepped_reallocator(self.NESTS)
        result = realloc.handle_rank_failure([5])
        assert set(result.retained_nests) == set(self.NESTS)
        assert result.store is None and result.dropped_nests == ()

    def test_reallocator_continues_on_the_shrunk_grid(self):
        realloc, store = stepped_reallocator(self.NESTS)
        ckpt = Checkpoint.take(0, realloc.allocation, self.NESTS, store)
        realloc.handle_rank_failure([5], store=store, checkpoint=ckpt)
        assert realloc.grid.py == 3
        nests = dict(self.NESTS)
        nests[4] = (16, 16)  # insert a new nest post-recovery
        result = realloc.step(nests)
        check_all(result.allocation, result.plan, nests)
        assert result.allocation.grid.nprocs == 12

    def test_rejects_invalid_input(self):
        realloc, _ = stepped_reallocator(self.NESTS)
        with pytest.raises(ValueError, match="outside current grid"):
            realloc.handle_rank_failure([99])
        with pytest.raises(ValueError, match="at least one dead rank"):
            realloc.handle_rank_failure([])
        fresh = make_reallocator()
        with pytest.raises(RecoveryError, match="no allocation"):
            fresh.handle_rank_failure([1])

    def test_audit_and_flight_trail(self):
        flight = FlightRecorder()
        with use_recorder(flight):
            realloc, store = stepped_reallocator(self.NESTS)
            ckpt = Checkpoint.take(0, realloc.allocation, self.NESTS, store)
            result = realloc.handle_rank_failure(
                [5], store=store, checkpoint=ckpt
            )
        kinds = [ev.kind for ev in flight.events()]
        for expected in (
            "recovery.start",
            "recovery.shrink",
            "recovery.verified",
            "recovery.nest_rebuilt",
            "recovery.done",
        ):
            assert expected in kinds
        assert kinds.count("recovery.done") == 1
        assert result.dead_ranks == frozenset({5})
        assert result.invariants_ok
        assert str(result.old_grid) == "4x4"


# ---------------------------------------------------------------------------
# Retry / backoff
# ---------------------------------------------------------------------------


class TestBackoffPolicy:
    def test_delays_grow_and_cap(self):
        policy = BackoffPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0
        )
        rng = make_rng(0)
        delays = [policy.delay(r, rng) for r in (1, 2, 3, 4)]
        assert delays == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_jitter_is_bounded_and_seeded(self):
        policy = BackoffPolicy(base_delay=0.1, jitter=0.25)
        assert policy.delay(1, make_rng(7)) == policy.delay(1, make_rng(7))
        for seed in range(30):
            d = policy.delay(1, make_rng(seed))
            assert 0.075 <= d <= 0.125

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_delay=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(max_delay=0.01)
        with pytest.raises(ValueError):
            BackoffPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.0)


class TestRetryExecutor:
    NEST = 1
    SIZE = (32, 32)

    def _allocs(self):
        """Two allocations of the same nest set with different weights,
        and the plan's move of the test nest between them."""
        realloc = make_reallocator()
        old = realloc.step({1: self.SIZE, 2: (48, 16)}).allocation
        result = realloc.step({1: self.SIZE, 2: (16, 48)})
        move = next(m for m in result.plan.moves if m.nest_id == self.NEST)
        return old, result.allocation, move

    def _store(self, old):
        store = RankStore(old.grid.nprocs)
        nx, ny = self.SIZE
        scatter_nest(store, self.NEST, field_for(self.NEST, nx, ny), old)
        return store

    def test_flaky_rounds_recover_and_preserve_data(self):
        old, new, move = self._allocs()
        store = self._store(old)
        nx, ny = self.SIZE
        fails = 2

        def round_time(attempt):
            if attempt < fails:
                raise TransientRedistributionError("injected")
            return 0.0

        ledger = CommLedger(old.grid.nprocs)
        outcome = execute_redistribution_with_retry(
            store, move, old, new, round_time=round_time, seed=3, ledger=ledger,
        )
        assert isinstance(outcome, RetryOutcome)
        assert outcome.attempts == 3 and outcome.recovered
        assert len(outcome.delays) == 2
        assert np.array_equal(
            gather_nest(store, self.NEST, nx, ny), field_for(self.NEST, nx, ny)
        )
        # retry traffic attributed in the ledger, once per failed round
        if move.transfer.network_points > 0:
            assert outcome.retried_bytes > 0
            assert ledger.n_retries == 2
            assert ledger.skew("retried").total == pytest.approx(
                outcome.retried_bytes
            )

    def test_retries_resend_the_plans_own_messages(self):
        """The executor derives no wire traffic of its own: every retried
        round re-sends the planned move's MessageSet object, and the
        winning attempt moves the data at the move's size."""
        old, new, move = self._allocs()
        store = self._store(old)
        nx, ny = self.SIZE

        class RecordingLedger:
            def __init__(self):
                self.retried_with = []

            def add_retry(self, messages):
                self.retried_with.append(messages)

        ledger = RecordingLedger()

        def round_time(attempt):
            if attempt < 2:
                raise TransientRedistributionError("injected")
            return 0.0

        outcome = execute_redistribution_with_retry(
            store, move, old, new, round_time=round_time, ledger=ledger,
        )
        assert outcome.attempts == 3 and outcome.recovered
        assert len(ledger.retried_with) == 2
        assert all(messages is move.messages for messages in ledger.retried_with)
        assert outcome.retried_bytes == 2 * move.messages.total_bytes
        assert np.array_equal(
            gather_nest(store, self.NEST, nx, ny), field_for(self.NEST, nx, ny)
        )

    def test_delays_are_seeded_deterministic_and_bounded(self):
        policy = BackoffPolicy(max_attempts=4)

        def run():
            old, new, move = self._allocs()
            store = self._store(old)
            return execute_redistribution_with_retry(
                store, move, old, new, policy=policy, seed=11,
                round_time=lambda a: (_ for _ in ()).throw(
                    TransientRedistributionError("x")
                ) if a < 3 else 0.0,
            )

        a, b = run(), run()
        assert a.delays == b.delays
        assert all(0 < d <= policy.max_delay * (1 + policy.jitter) for d in a.delays)

    def test_exhaustion_aborts_without_touching_the_store(self):
        old, new, move = self._allocs()
        store = self._store(old)
        nx, ny = self.SIZE
        policy = BackoffPolicy(max_attempts=3)

        def always_fail(attempt):
            raise TransientRedistributionError("down")

        with pytest.raises(RedistributionAbortedError) as err:
            execute_redistribution_with_retry(
                store, move, old, new, policy=policy, round_time=always_fail,
            )
        assert err.value.attempts == 3
        # untouched: the field still gathers intact under the OLD layout
        assert np.array_equal(
            gather_nest(store, self.NEST, nx, ny), field_for(self.NEST, nx, ny)
        )

    def test_timeout_counts_as_failure(self):
        old, new, move = self._allocs()
        store = self._store(old)
        durations = iter([5.0, 0.1])
        outcome = execute_redistribution_with_retry(
            store, move, old, new, timeout=1.0, round_time=lambda a: next(durations),
        )
        assert outcome.attempts == 2 and outcome.recovered

    def test_bad_arguments_rejected(self):
        old, new, move = self._allocs()
        store = self._store(old)
        with pytest.raises(ValueError):
            execute_redistribution_with_retry(store, move, old, new, timeout=0.0)


# ---------------------------------------------------------------------------
# Property: invariants under interleaved insert / delete / rank-failure
# ---------------------------------------------------------------------------


class TestInvariantsUnderFailureChurn:
    @given(st.integers(0, 10_000), st.integers(3, 8))
    @settings(max_examples=25, deadline=None)
    def test_interleaved_churn_and_failures(self, seed, n_steps):
        rng = np.random.default_rng(seed)
        realloc = make_reallocator(64)  # 8x8 grid: room for several shrinks
        nests = {1: (48, 48), 2: (32, 64)}
        next_id = 2
        sizes_seen = dict(nests)
        realloc.step(nests)
        for _ in range(n_steps):
            # maybe fail one rank (planning-only recovery keeps all nests)
            if realloc.grid.py > 1 and rng.uniform() < 0.5:
                dead = int(rng.integers(0, realloc.grid.nprocs))
                result = realloc.handle_rank_failure([dead])
                assert result.invariants_ok
                check_tiling(result.allocation)
                check_tree_consistency(result.allocation)
                self._assert_leaf_rects_disjoint(result.allocation)
            # interleave nest churn
            for nid in list(nests):
                if len(nests) > 1 and rng.uniform() < 0.3:
                    del nests[nid]
            if len(nests) < 5 and rng.uniform() < 0.6:
                next_id += 1
                nests[next_id] = (
                    int(rng.integers(16, 64)),
                    int(rng.integers(16, 64)),
                )
            sizes_seen.update(nests)
            result = realloc.step(nests)
            check_all(result.allocation, result.plan, sizes_seen)
            self._assert_leaf_rects_disjoint(result.allocation)

    @staticmethod
    def _assert_leaf_rects_disjoint(allocation):
        rects = list(allocation.rects.values())
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                overlap_w = min(a.x0 + a.w, b.x0 + b.w) - max(a.x0, b.x0)
                overlap_h = min(a.y0 + a.h, b.y0 + b.h) - max(a.y0, b.y0)
                assert overlap_w <= 0 or overlap_h <= 0, f"{a} overlaps {b}"


# ---------------------------------------------------------------------------
# Injector + soak
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_crash_feeds_crashed_ranks(self):
        plan = FaultPlan((RankCrash(1, 3), RankCrash(2, 7)))
        inj = FaultInjector(plan)
        assert inj.apply_step(0) == []
        assert inj.apply_step(1) == [RankCrash(1, 3)]
        assert inj.crashed_ranks == frozenset({3})
        assert inj.apply_step(2) == [RankCrash(2, 7)]
        assert inj.crashed_ranks == frozenset({3, 7})

    def test_split_file_faults_fire_in_damage_files(self):
        from repro.analysis import SplitBatch, parallel_data_analysis
        from repro.grid import ProcessorGrid

        plan = FaultPlan(
            (
                SplitFileFault(0, 0, mode="truncate"),
                SplitFileFault(0, 1, mode="corrupt"),
            )
        )
        inj = FaultInjector(plan)
        qcloud, olr = np.zeros((10, 30)), np.full((10, 30), 150.0)
        for field in (qcloud, olr):  # the step's fields, read-only as the model's
            field.flags.writeable = False
        files = SplitBatch(qcloud, olr, (0, 10, 20, 30), (0, 10), np.zeros(3, dtype=bool))
        assert inj.apply_step(0) == []  # data faults don't fire here
        damaged = inj.damage_files(0, files)
        assert damaged.file(0) is None
        assert not np.isfinite(damaged.file(1).qcloud).all()
        assert np.shares_memory(damaged.file(2).qcloud, qcloud)
        # the input batch and the fields it shares are left as they were
        assert damaged.qcloud is qcloud and damaged.olr is olr
        assert not files.missing.any() and files.damaged == {}
        assert (qcloud == 0.0).all()
        result = parallel_data_analysis(damaged, ProcessorGrid(3, 1), 1)
        assert result.n_files_missing == 1 and result.n_files_corrupt == 1
        assert result.gathered_items == 1 and result.summaries[0].file_index == 2

    @pytest.mark.parametrize("link", [-1, 6 * 256, 10**9])
    def test_link_outside_the_machine_is_rejected(self, link):
        machine = blue_gene_l(256)  # 1 536 directed links
        sim = NetworkSimulator(machine.mapping, CostModel.for_machine(machine))
        with pytest.raises(ValueError, match=r"outside \[0, 1536\)"):
            sim.set_link_fault(link, 0.5)
        assert sim.link_faults == {}
        if link < 0:  # a plan cannot name a negative link
            return
        inj = FaultInjector(FaultPlan((LinkFault(0, link, 0.5),)), simulator=sim)
        flight = FlightRecorder()
        with use_recorder(flight), pytest.raises(ValueError, match="outside"):
            inj.apply_step(0)
        assert sim.link_faults == {}
        assert inj.applied == []
        assert not [e for e in flight.events() if e.kind == "fault.inject"]
        sim.set_link_fault(6 * 256 - 1, 0.5)  # the last link is the machine's
        assert sim.link_faults == {6 * 256 - 1: 0.5}


class TestSoak:
    def test_quick_suite_is_clean_and_deterministic(self):
        report = run_soak(SUITES["quick"])
        assert report.ok
        assert report.invariant_violations == 0
        assert report.data_failures == 0
        assert report.n_crashes == 2
        assert report.recovery_steps  # at least one recovery happened
        assert report.data_checks > 0
        # one recovery-table row per recovery, each at its recovery step
        assert [int(row[0]) for row in report.recoveries] == report.recovery_steps
        # the whole run was sanitized, crashes and recoveries included
        assert report.total_checks >= 80 and report.violations == []
        assert report.checks_run["recovery.rebuild"] > 0
        assert run_soak(SUITES["quick"]).to_dict() == report.to_dict()

    def test_quick_soak_flight_log_shows_the_healing_chain(self):
        flight = FlightRecorder()
        ledger = CommLedger(SUITES["quick"].machine().ncores)
        with use_recorder(flight):
            report = run_soak(SUITES["quick"], ledger=ledger)
        assert report.ok
        kinds = [ev.kind for ev in flight.events()]
        for expected in (
            "fault.inject",
            "fault.detected",
            "recovery.shrink",
            "recovery.done",
            "redist.retry",
            "redist.recovered",
        ):
            assert expected in kinds, f"missing {expected}"
        # detection precedes the recovery, and the round right after the
        # recovery is flaky on purpose, so a *recovered* redistribution
        # must appear downstream of recovery.done
        rec_done = kinds.index("recovery.done")
        assert kinds.index("fault.detected") < rec_done
        assert "redist.recovered" in kinds[rec_done:]
        # the retried traffic is attributed per sending rank
        assert ledger.n_retries > 0
        assert ledger.skew("retried").total > 0

    def test_full_suite_exercises_every_fault_kind(self):
        report = run_soak(SUITES["full"])
        assert report.ok
        assert report.pda_runs > 0 and report.pda_partial > 0
        # split-file faults fire in damage_files, and count as applied too
        assert report.n_faults_planned == report.n_faults_applied == 8
        assert "verdict" in format_soak_report(report)

    def test_dropped_nests_stay_dropped(self):
        # Corrupting one block every step leaves no verified checkpoint,
        # so the nests the crash hits cannot be restored: recovery drops
        # them, and later steps of the workload must not bring them back.
        live_after = []

        def tamper(store, step):
            live_after.append(set(store.nests))
            nid = min(store.nests)
            block, _rect = store.get(store.holders(nid)[0], nid)
            block += 1e-12

        flight = FlightRecorder()
        with use_recorder(flight):
            report = run_soak(SUITES["quick"], tamper=tamper)
        dropped = {
            ev.data["nest"] for ev in flight.events() if ev.kind == "recovery.drop_nest"
        }
        assert not report.ok
        assert report.dropped_nests == len(dropped) > 0
        (recovery_step,) = report.recovery_steps
        for live in live_after[recovery_step:]:
            assert not live & dropped

    def test_custom_config_seed_changes_the_plan(self):
        import dataclasses

        base = SUITES["quick"]
        other = dataclasses.replace(base, seed=base.seed + 1)
        assert isinstance(other, SoakConfig)
        machine = base.machine()
        assert base.fault_plan(machine) != other.fault_plan(machine)
