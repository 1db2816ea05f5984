"""Tests for the adaptation audit trail (``repro.obs.audit``).

Acceptance criteria covered here: every adaptation point of an audited
run produces a record with predicted-scratch, predicted-diffusion,
chosen-strategy and observed-cost fields, and the prediction error
computed from the trail matches the §V-F report path.
"""

import json
import math

import pytest

import repro.core.dynamic as dynamic
import repro.core.redistribution as redistribution
from repro.core import AdaptiveResetStrategy, DiffusionStrategy, ScratchStrategy
from repro.core.dynamic import predict_candidate_costs
from repro.experiments import synthetic_workload
from repro.experiments.report import prediction_accuracy_report
from repro.experiments.runner import ExperimentContext, WorkloadStepper, run_workload
from repro.obs import AdaptationAudit, AuditTrail, FlightRecorder, pearson, use_recorder
from repro.topology import MACHINES


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_uncorrelated(self):
        r = pearson([1.0, 2.0, 1.0, 2.0], [5.0, 5.0, 7.0, 7.0])
        assert r == pytest.approx(0.0)

    def test_degenerate_inputs_nan(self):
        assert math.isnan(pearson([], []))
        assert math.isnan(pearson([1.0], [2.0]))
        assert math.isnan(pearson([1.0, 1.0], [2.0, 3.0]))  # zero variance

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            pearson([1.0], [1.0, 2.0])


def _audit(**overrides):
    base = dict(
        step=0,
        strategy="dynamic",
        chosen="diffusion",
        n_nests=3,
        predicted_scratch_exec=2.0,
        predicted_scratch_redist=0.5,
        predicted_diffusion_exec=2.2,
        predicted_diffusion_redist=0.1,
        predicted_exec=2.2,
        predicted_redist=0.1,
        observed_exec=2.0,
        observed_redist=0.2,
    )
    base.update(overrides)
    return AdaptationAudit(**base)


class TestAdaptationAudit:
    def test_derived_totals(self):
        a = _audit()
        assert a.predicted_scratch == pytest.approx(2.5)
        assert a.predicted_diffusion == pytest.approx(2.3)
        assert a.predicted_total == pytest.approx(2.3)
        assert a.observed_total == pytest.approx(2.2)

    def test_errors(self):
        a = _audit()
        assert a.exec_error == pytest.approx(0.2)
        assert a.redist_error == pytest.approx(-0.1)
        assert a.exec_rel_error == pytest.approx(0.1)
        assert a.redist_rel_error == pytest.approx(0.5)

    def test_rel_error_nan_when_nothing_observed(self):
        a = _audit(observed_exec=0.0, observed_redist=0.0)
        assert math.isnan(a.exec_rel_error)
        assert math.isnan(a.redist_rel_error)

    def test_to_dict_includes_derived_fields(self):
        d = _audit().to_dict()
        assert d["chosen"] == "diffusion"
        assert d["predicted_scratch"] == pytest.approx(2.5)
        assert d["exec_error"] == pytest.approx(0.2)
        assert json.loads(json.dumps(d)) == d


class TestAuditTrail:
    def _trail(self):
        trail = AuditTrail()
        for i in range(4):
            trail.record(
                _audit(
                    step=i,
                    strategy="scratch",
                    chosen="scratch",
                    predicted_exec=1.0 + i,
                    observed_exec=2.0 + 2 * i,
                )
            )
        trail.record(_audit(step=0, strategy="dynamic", chosen="diffusion"))
        return trail

    def test_slicing_and_order(self):
        trail = self._trail()
        assert len(trail) == 5
        assert trail.strategies() == ["scratch", "dynamic"]
        assert len(trail.for_strategy("scratch")) == 4
        assert trail.for_strategy("nope") == []

    def test_exec_correlation_matches_pearson(self):
        trail = self._trail()
        records = trail.for_strategy("scratch")
        expected = pearson(
            [r.predicted_exec for r in records],
            [r.observed_exec for r in records],
        )
        assert trail.exec_correlation("scratch") == pytest.approx(expected)
        assert trail.exec_correlation("scratch") == pytest.approx(1.0)

    def test_mean_abs_rel_error_skips_nan(self):
        trail = AuditTrail()
        trail.record(_audit(observed_exec=2.0, predicted_exec=1.0))  # 50%
        trail.record(_audit(observed_exec=0.0))  # NaN, skipped
        assert trail.mean_abs_rel_error("exec_rel_error") == pytest.approx(0.5)
        assert math.isnan(AuditTrail().mean_abs_rel_error("exec_rel_error"))

    def test_choice_counts(self):
        trail = self._trail()
        assert trail.choice_counts() == {"scratch": 4, "diffusion": 1}
        assert trail.choice_counts("dynamic") == {"diffusion": 1}

    def test_to_jsonl(self):
        lines = self._trail().to_jsonl().splitlines()
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert first["strategy"] == "scratch" and first["step"] == 0

    def test_accuracy_report_renders(self):
        text = self._trail().accuracy_report()
        assert "§V-F" in text and "scratch" in text and "dynamic" in text


class TestAuditedRuns:
    """Every adaptation point of an audited run yields one full record."""

    N_STEPS = 8

    def _run(self, strategy_factory):
        trail = AuditTrail()
        ctx = ExperimentContext(MACHINES["bgl-256"], audit=trail)
        strategy = strategy_factory(ctx)
        run_workload(synthetic_workload(seed=0, n_steps=self.N_STEPS), strategy, ctx)
        return trail

    def test_one_record_per_adaptation_point(self):
        trail = self._run(lambda ctx: ScratchStrategy())
        assert len(trail) == self.N_STEPS
        assert [r.step for r in trail.records] == list(range(self.N_STEPS))

    def test_records_carry_both_candidates_and_observation(self):
        trail = self._run(lambda ctx: ScratchStrategy())
        for r in trail.records:
            assert r.strategy == "scratch" and r.chosen == "scratch"
            assert r.n_nests > 0
            assert r.predicted_scratch_exec > 0.0
            assert r.predicted_diffusion_exec > 0.0
            assert r.predicted_scratch_redist >= 0.0
            assert r.predicted_diffusion_redist >= 0.0
            assert r.predicted_exec > 0.0
            assert r.observed_exec > 0.0
            assert r.observed_redist >= 0.0

    def test_dynamic_chosen_matches_history(self):
        trail = AuditTrail()
        ctx = ExperimentContext(MACHINES["bgl-256"], audit=trail)
        strategy = ctx.make_dynamic_strategy()
        run_workload(synthetic_workload(seed=0, n_steps=self.N_STEPS), strategy, ctx)
        assert len(trail) == self.N_STEPS
        for record, choice in zip(trail.records, strategy.history):
            assert record.strategy == "dynamic"
            assert record.chosen == choice.chosen
            assert record.predicted_scratch_exec == pytest.approx(choice.scratch_exec)
            assert record.predicted_scratch_redist == pytest.approx(
                choice.scratch_redist
            )
            assert record.predicted_diffusion_exec == pytest.approx(
                choice.diffusion_exec
            )
            assert record.predicted_diffusion_redist == pytest.approx(
                choice.diffusion_redist
            )

    def test_diffusion_run_audits_too(self):
        trail = self._run(lambda ctx: DiffusionStrategy())
        assert len(trail) == self.N_STEPS
        assert all(r.chosen == "diffusion" for r in trail.records)

    def test_error_gauges_on_ambient_recorder(self):
        trail = AuditTrail()
        rec = FlightRecorder()
        ctx = ExperimentContext(MACHINES["bgl-256"], audit=trail)
        with use_recorder(rec):
            run_workload(synthetic_workload(seed=0, n_steps=4), ScratchStrategy(), ctx)
        assert "audit.exec_error" in rec.gauges
        assert "audit.redist_error" in rec.gauges
        last = trail.records[-1]
        assert rec.gauges["audit.exec_error"] == pytest.approx(last.exec_error)
        assert rec.gauges["audit.redist_error"] == pytest.approx(last.redist_error)

    def test_unaudited_run_stays_clean(self):
        ctx = ExperimentContext(MACHINES["bgl-256"])
        run_workload(synthetic_workload(seed=0, n_steps=4), ScratchStrategy(), ctx)
        assert ctx.audit is None


class TestSideCostingReusesTheAppliedPlan:
    """A scratch-, diffusion- or adaptive-reset run prices on the side only
    a candidate that differs from the allocation it applied; its records
    equal those built from both candidates priced in full."""

    N_STEPS = 12

    @pytest.mark.parametrize(
        "factory", [ScratchStrategy, DiffusionStrategy, AdaptiveResetStrategy]
    )
    def test_records_equal_full_candidate_costing(self, factory):
        ctx = ExperimentContext(MACHINES["bgl-256"], audit=AuditTrail())
        expected = []
        coincide = []

        class FullyCosted(WorkloadStepper):
            def _audit(self, old_alloc, result, nests, exec_pred, exec_actual, chosen):
                cand = predict_candidate_costs(
                    old_alloc,
                    result.weights,
                    self.realloc.grid,
                    dict(nests),
                    ctx.machine,
                    ctx.cost,
                    ctx.predictor,
                )
                coincide.append(cand.scratch.rects == cand.diffusion.rects)
                plan = result.plan
                expected.append(
                    AdaptationAudit(
                        step=self.next_step,
                        strategy=self.strategy.name,
                        chosen=chosen or self.strategy.name,
                        n_nests=len(nests),
                        predicted_scratch_exec=cand.choice.scratch_exec,
                        predicted_scratch_redist=cand.choice.scratch_redist,
                        predicted_diffusion_exec=cand.choice.diffusion_exec,
                        predicted_diffusion_redist=cand.choice.diffusion_redist,
                        predicted_exec=exec_pred,
                        predicted_redist=plan.predicted_time if plan else 0.0,
                        observed_exec=exec_actual,
                        observed_redist=plan.measured_time if plan else 0.0,
                    )
                )
                super()._audit(old_alloc, result, nests, exec_pred, exec_actual, chosen)

        stepper = FullyCosted(
            synthetic_workload(seed=0, n_steps=self.N_STEPS), factory(), ctx
        )
        while not stepper.done:
            stepper.advance()
        assert ctx.audit.records == expected
        # points where the candidates coincide and points where they differ
        assert any(coincide) and not all(coincide)

    @pytest.mark.parametrize("factory", [ScratchStrategy, DiffusionStrategy])
    def test_each_distinct_move_set_is_made_once(self, factory, monkeypatch):
        """A point makes its plan's moves plus, when the other candidate
        differs, that candidate's: at most two ``nest_moves`` calls."""
        moved = []
        real_nest_moves = redistribution.nest_moves

        def counting_nest_moves(old, new, nest_sizes, machine, cost, moves=None):
            moved.append(new.rects)
            return real_nest_moves(old, new, nest_sizes, machine, cost, moves)

        monkeypatch.setattr(redistribution, "nest_moves", counting_nest_moves)
        monkeypatch.setattr(dynamic, "nest_moves", counting_nest_moves)
        ctx = ExperimentContext(MACHINES["bgl-256"], audit=AuditTrail())
        stepper = WorkloadStepper(
            synthetic_workload(seed=0, n_steps=self.N_STEPS), factory(), ctx
        )
        per_point = []
        while not stepper.done:
            start = len(moved)
            stepper.advance()
            per_point.append(moved[start:])
        assert per_point[0] == []  # the first point moves nothing
        for rects in per_point[1:]:
            assert 1 <= len(rects) <= 2
            assert len(rects) == 1 or rects[0] != rects[1]
        assert any(len(rects) == 2 for rects in per_point)


class TestSectionVFParity:
    """The §V-F report path and the audit trail agree exactly."""

    def test_report_pearson_comes_from_the_trail(self):
        report = prediction_accuracy_report(seed=5, n_steps=12, machine_key="bgl-256")
        trail = report.audit
        assert len(trail) == 12
        assert report.pearson_r == pytest.approx(trail.exec_correlation("scratch"))
        # recompute from the raw records: same number, no drift possible
        recomputed = pearson(
            [r.predicted_exec for r in trail.records],
            [r.observed_exec for r in trail.records],
        )
        assert report.pearson_r == pytest.approx(recomputed)
        assert "§V-F" in report.text
