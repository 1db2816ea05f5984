"""Tests of the service-layer faults: plans, campaign configs, live campaigns.

The campaign tests here are the miniature versions of the acceptance
criteria: a worker-crash campaign must end with every surviving session
bit-identical to its unperturbed twin, and rerunning the same
``(plan, seed)`` must reproduce the verdict dict exactly.  Geometries are
kept small (3-4 sessions, 3-4 steps) so the whole module stays in the
tier-1 budget.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.faults import (
    ConsumerDisconnect,
    FaultPlan,
    JournalCorrupt,
    JournalTruncate,
    RankCrash,
    SessionKill,
    SlowConsumer,
    StepStall,
    WorkerCrash,
)
from repro.faults.fleet import CampaignConfig, build_suite, run_campaign


class TestChaosFaults:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: WorkerCrash(at_step=0, worker=0),
            lambda: WorkerCrash(at_step=1, worker=-1),
            lambda: StepStall(at_step=1, session_index=-1),
            lambda: StepStall(at_step=1, session_index=0, seconds=0.0),
            lambda: SessionKill(at_step=0, session_index=0),
            lambda: SessionKill(at_step=1, session_index=0, rank=-1),
            lambda: SlowConsumer(session_index=-1),
            lambda: ConsumerDisconnect(session_index=-1),
            lambda: SlowConsumer(session_index=0, read_limit=-1),
            lambda: ConsumerDisconnect(session_index=0, after_lines=-1),
            lambda: JournalTruncate(at_step=1, nbytes=0),
            lambda: JournalCorrupt(at_step=1, line=0),
        ],
    )
    def test_bad_fields_rejected(self, factory):
        with pytest.raises(ValueError):
            factory()


class TestChaosPlan:
    def test_at_most_one_journal_fault(self):
        with pytest.raises(ValueError, match="at most one journal fault"):
            FaultPlan(
                faults=(JournalTruncate(at_step=2), JournalCorrupt(at_step=3))
            )

    def test_duplicate_kill_rejected(self):
        with pytest.raises(ValueError, match="killed more than once"):
            FaultPlan(
                faults=(
                    SessionKill(at_step=1, session_index=2),
                    SessionKill(at_step=3, session_index=2),
                )
            )

    def test_queries_partition_the_plan(self):
        plan = FaultPlan(
            faults=(
                WorkerCrash(at_step=9, worker=1),
                WorkerCrash(at_step=2, worker=0),
                StepStall(at_step=1, session_index=0),
                SessionKill(at_step=2, session_index=3),
                SlowConsumer(session_index=0),
                JournalTruncate(at_step=4),
                RankCrash(step=3, rank=2),
            )
        )
        assert [w.at_step for w in plan.worker_crashes()] == [2, 9]
        assert len(plan.stalls()) == 1
        assert len(plan.kills()) == 1
        assert len(plan.consumers()) == 1
        assert isinstance(plan.journal_fault(), JournalTruncate)
        # the machine-layer queries see only the machine layer
        assert plan.at_step(2) == []
        assert plan.at_step(3) == [RankCrash(step=3, rank=2)]
        assert plan.last_step == 3
        assert plan.n_faults == 7

    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded_fleet(seed=7, n_sessions=6, n_steps=5, workers=3)
        b = FaultPlan.seeded_fleet(seed=7, n_sessions=6, n_steps=5, workers=3)
        assert a == b
        c = FaultPlan.seeded_fleet(seed=8, n_sessions=6, n_steps=5, workers=3)
        assert a != c

    def test_seeded_kills_target_the_tail(self):
        plan = FaultPlan.seeded_fleet(
            seed=3, n_sessions=6, n_steps=5, workers=3, n_kills=2
        )
        killed = {k.session_index for k in plan.kills()}
        assert killed == {4, 5}
        for stall in plan.stalls():
            assert stall.session_index not in killed

    def test_seeded_steps_always_land(self):
        for seed in range(5):
            plan = FaultPlan.seeded_fleet(
                seed=seed, n_sessions=5, n_steps=4, workers=2, n_kills=1
            )
            for fault in plan.stalls() + plan.kills():
                assert 1 <= fault.at_step < 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_sessions": 2, "n_kills": 2},
            {"n_steps": 1},
            {"journal": "shred"},
        ],
    )
    def test_seeded_rejects_bad_geometry(self, kwargs):
        base = dict(seed=0, n_sessions=4, n_steps=4, workers=2)
        base.update(kwargs)
        with pytest.raises(ValueError):
            FaultPlan.seeded_fleet(**base)


class TestCampaignConfig:
    def test_fault_must_fit_fleet(self):
        plan = FaultPlan(faults=(StepStall(at_step=1, session_index=9),))
        with pytest.raises(ValueError, match="targets session"):
            CampaignConfig(name="x", plan=plan, sessions=3, steps=3)

    def test_fault_step_must_land(self):
        plan = FaultPlan(faults=(SessionKill(at_step=3, session_index=0),))
        with pytest.raises(ValueError, match="can never land"):
            CampaignConfig(name="x", plan=plan, sessions=3, steps=3)

    def test_consumers_need_http(self):
        plan = FaultPlan(faults=(SlowConsumer(session_index=0),))
        with pytest.raises(ValueError, match="use_http"):
            CampaignConfig(name="x", plan=plan, sessions=3, steps=3)

    def test_journal_excludes_http(self):
        plan = FaultPlan(faults=(JournalTruncate(at_step=2),))
        with pytest.raises(ValueError, match="HTTP front"):
            CampaignConfig(
                name="x", plan=plan, sessions=3, steps=3, use_http=True
            )

    def test_journal_excludes_kills(self):
        plan = FaultPlan(
            faults=(
                JournalTruncate(at_step=2),
                SessionKill(at_step=1, session_index=0),
            )
        )
        with pytest.raises(ValueError, match="cannot also"):
            CampaignConfig(name="x", plan=plan, sessions=3, steps=3)

    def test_machine_faults_rejected(self):
        plan = FaultPlan(faults=(RankCrash(step=1, rank=1),))
        with pytest.raises(ValueError, match="service-layer faults only"):
            CampaignConfig(name="x", plan=plan, sessions=3, steps=3)

    def test_specs_are_per_session_deterministic(self):
        config = CampaignConfig(name="x", seed=2, sessions=4, steps=3)
        specs = config.specs()
        assert len(specs) == 4
        assert [s.seed for s in specs] == [200_006 + i for i in range(4)]
        assert [s.priority for s in specs] == [0, 1, 0, 1]
        assert all(s.steps == 3 for s in specs)


def _crash_config(name: str = "mini-crash") -> CampaignConfig:
    """A small campaign exercising crash + stall + kill at once."""
    plan = FaultPlan(
        faults=(
            WorkerCrash(at_step=2, worker=0),
            StepStall(at_step=1, session_index=0, seconds=0.5),
            SessionKill(at_step=2, session_index=3),
        )
    )
    return CampaignConfig(name=name, plan=plan, sessions=4, steps=4, workers=2)


class TestRunCampaign:
    def test_worker_crash_campaign_recovers_bit_identically(self):
        report = run_campaign(_crash_config())
        assert report.ok, report.verdict()
        assert report.worker_crashes == 1
        assert report.worker_restarts == 1
        assert report.sessions_failed == 1
        assert report.sessions_done == 3
        assert report.sessions_stuck == 0
        # the acceptance criterion: survivors match unperturbed twins
        assert report.signatures_checked >= 1
        assert report.signature_ok
        # conservation held under fire
        assert report.sanitizer_armed == 1
        assert report.sanitizer_checks > 0
        assert report.sanitizer_violations == 0
        assert report.invariant_violations == 0
        # no journal phase in this campaign
        assert report.journal_skipped_lines == -1

    def test_verdict_is_deterministic_across_reruns(self):
        plan = FaultPlan(
            faults=(
                WorkerCrash(at_step=2, worker=1),
                SessionKill(at_step=1, session_index=2),
            )
        )
        config = CampaignConfig(
            name="twice", plan=plan, sessions=3, steps=3, workers=2
        )
        first = run_campaign(config).verdict()
        second = run_campaign(config).verdict()
        assert first == second
        assert first["ok"] is True

    def test_journal_truncate_campaign(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        plan = FaultPlan(faults=(JournalTruncate(at_step=4, nbytes=5),))
        config = CampaignConfig(
            name="mini-truncate", plan=plan, sessions=3, steps=3, workers=2
        )
        report = run_campaign(config)
        # the journal lived exactly as long as the campaign
        assert list(tmp_path.iterdir()) == []
        assert report.ok, report.verdict()
        assert report.truncation_expected == 1
        assert report.journal_skipped_lines == 1
        assert report.corruption_detected == 0
        assert report.sessions_done == 3
        assert report.signature_ok
        assert report.journal_records > 0

    def test_journal_corrupt_campaign(self):
        plan = FaultPlan(faults=(JournalCorrupt(at_step=4, line=2),))
        config = CampaignConfig(
            name="mini-corrupt", plan=plan, sessions=3, steps=3, workers=2
        )
        report = run_campaign(config)
        assert report.ok, report.verdict()
        assert report.corruption_expected == 1
        assert report.corruption_detected == 1
        assert report.sessions_done == 3
        assert report.signature_ok

    def test_report_dict_shape(self):
        report = run_campaign(
            CampaignConfig(name="calm", sessions=2, steps=2, workers=1)
        )
        verdict = report.verdict()
        out = report.to_dict()
        assert verdict["ok"] is True
        assert "diagnostics" not in verdict
        assert set(out) == set(verdict) | {"diagnostics"}
        assert out["diagnostics"]["signatures_checked"] == 2


class TestSuites:
    def test_suite_names_validated(self):
        with pytest.raises(ValueError, match="unknown suite"):
            build_suite("violent")
        with pytest.raises(ValueError, match="unknown suite"):
            build_suite("quick")  # the soak's suite, not a fleet suite

    def test_quick_suite_shape(self):
        campaigns = build_suite("fleet-quick", seed=0)
        assert [c.name for c in campaigns] == ["worker-crash", "journal-truncate"]
        assert all(isinstance(c, CampaignConfig) for c in campaigns)
        # seeded construction is reproducible
        again = build_suite("fleet-quick", seed=0)
        assert [c.plan for c in campaigns] == [c.plan for c in again]

    def test_full_suite_extends_quick(self):
        quick = build_suite("fleet-quick", seed=1)
        full = build_suite("fleet-full", seed=1)
        assert [c.name for c in full[: len(quick)]] == [c.name for c in quick]
        assert len(full) > len(quick)
        assert any(c.use_http for c in full)
