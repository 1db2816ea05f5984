"""Tests for the §V-F accuracy table and its one per-point record.

A run's :class:`~repro.core.metrics.StepMetrics` are the only record of
an adaptation point: predicted and observed execution and redistribution
times plus the allocation applied.  These tests cover the Pearson
correlation (``repro.experiments.report.pearson``), the §V-F table
:func:`~repro.experiments.report.accuracy_report` computes from
``RunResult``s, the decision counters and flight-log fields a workload
run records at every point, and that a run prices nothing it does not
apply.
"""

import math
from collections import Counter

import pytest

import repro.core.dynamic as dynamic
import repro.core.redistribution as redistribution
from repro.core import AdaptiveResetStrategy, DiffusionStrategy, ScratchStrategy
from repro.core.metrics import StepMetrics
from repro.experiments import synthetic_workload
from repro.experiments.report import (
    accuracy_report,
    pearson,
    prediction_accuracy_report,
)
from repro.experiments.runner import (
    ExperimentContext,
    RunResult,
    WorkloadStepper,
    run_workload,
)
from repro.obs import FlightRecorder, use_recorder
from repro.serve import ScenarioSpec, Session
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


def _metric(step, exec_predicted, exec_actual, **overrides):
    base = dict(
        step=step,
        n_nests=3,
        n_retained=2,
        predicted_redist=0.1,
        measured_redist=0.2,
        hop_bytes_avg=1.0,
        hop_bytes_total=3.0,
        overlap_fraction=0.5,
        exec_predicted=exec_predicted,
        exec_actual=exec_actual,
    )
    base.update(overrides)
    return StepMetrics(**base)


def _table(text):
    """``{run strategy: {column: cell}}`` of an accuracy report."""
    lines = text.splitlines()
    rule = next(i for i, line in enumerate(lines) if "-+-" in line)
    headers = [cell.strip() for cell in lines[rule - 1].split("|")]
    rows = [[cell.strip() for cell in line.split("|")] for line in lines[rule + 1 :]]
    return {row[0]: dict(zip(headers, row)) for row in rows}


class TestAuditTrail:
    """The §V-F aggregations, computed by :func:`accuracy_report` from
    ``RunResult``s."""

    def _runs(self):
        scratch = RunResult(
            workload="w",
            strategy="scratch",
            metrics=[_metric(i, 1.0 + i, 2.0 + 2 * i) for i in range(4)],
        )
        dynamic_run = RunResult(
            workload="w",
            strategy="dynamic",
            metrics=[_metric(0, 2.2, 2.0, strategy_choice="diffusion")],
        )
        return [scratch, dynamic_run]

    def test_slicing_and_order(self):
        scratch, dynamic_run = self._runs()
        more_scratch = RunResult(
            workload="w2", strategy="scratch", metrics=[_metric(0, 1.0, 1.0)]
        )
        table = _table(accuracy_report([scratch, dynamic_run, more_scratch]))
        # strategies in first-seen order; runs of one strategy pool points
        assert list(table) == ["scratch", "dynamic"]
        assert table["scratch"]["points"] == "5"
        assert table["dynamic"]["points"] == "1"

    def test_exec_correlation_matches_pearson(self):
        scratch, _ = self._runs()
        expected = pearson(scratch.series("exec_predicted"), scratch.series("exec_actual"))
        table = _table(accuracy_report(self._runs()))
        assert table["scratch"]["exec Pearson r"] == f"{expected:.3f}" == "1.000"
        assert table["dynamic"]["exec Pearson r"] == "nan"  # one point

    def test_mean_abs_rel_error_skips_nan(self):
        runs = [
            RunResult(
                workload="w",
                strategy="scratch",
                metrics=[
                    _metric(0, 1.0, 2.0, predicted_redist=0.3, measured_redist=0.2),
                    _metric(1, 5.0, 0.0, predicted_redist=9.0, measured_redist=0.0),
                ],
            ),
            RunResult(
                workload="w",
                strategy="diffusion",
                metrics=[_metric(0, 1.0, 0.0, measured_redist=0.0)],
            ),
        ]
        table = _table(accuracy_report(runs))
        # the unobserved second point is skipped, not counted as an error
        assert table["scratch"]["exec MARE"] == "50.0%"
        assert table["scratch"]["redist MARE"] == "50.0%"
        assert table["diffusion"]["exec MARE"] == "nan%"
        assert table["diffusion"]["redist MARE"] == "nan%"

    def test_choice_counts(self):
        table = _table(accuracy_report(self._runs()))
        assert table["scratch"]["applied allocations"] == "scratch:4"
        assert table["dynamic"]["applied allocations"] == "diffusion:1"

    def test_accuracy_report_renders(self):
        text = accuracy_report(self._runs())
        assert text.startswith(
            "per-point metrics — prediction accuracy (paper §V-F: r ≈ 0.9)"
        )
        assert "scratch" in text and "dynamic" in text
        assert accuracy_report(self._runs(), title="x").startswith("x — ")


class TestAuditedRuns:
    """Every adaptation point of a run yields one record and one decision."""

    N_STEPS = 8

    def _run(self, strategy_factory):
        ctx = ExperimentContext(MACHINES["bgl-256"])
        strategy = strategy_factory(ctx)
        rec = FlightRecorder()
        with use_recorder(rec):
            run = run_workload(
                synthetic_workload(seed=0, n_steps=self.N_STEPS), strategy, ctx
            )
        return run, rec, strategy

    def test_one_record_per_adaptation_point(self):
        run, rec, _ = self._run(lambda ctx: ScratchStrategy())
        assert [m.step for m in run.metrics] == list(range(self.N_STEPS))
        assert all(m.exec_predicted > 0.0 and m.exec_actual > 0.0 for m in run.metrics)
        assert rec.counters["decision.scratch"] == self.N_STEPS

    def test_dynamic_chosen_matches_history(self):
        run, rec, strategy = self._run(lambda ctx: ctx.make_dynamic_strategy())
        chosen = [m.strategy_choice for m in run.metrics]
        assert chosen == [choice.chosen for choice in strategy.history]
        decisions = {
            name: count for name, count in rec.counters.items()
            if name.startswith("decision.")
        }
        assert decisions == {f"decision.{k}": v for k, v in Counter(chosen).items()}

    def test_diffusion_run_audits_too(self):
        run, rec, _ = self._run(lambda ctx: DiffusionStrategy())
        assert len(run.metrics) == self.N_STEPS
        assert rec.counters["decision.diffusion"] == self.N_STEPS
        assert _table(accuracy_report([run]))["diffusion"]["applied allocations"] == (
            f"diffusion:{self.N_STEPS}"
        )

    def test_exec_prediction_rides_on_adaptation_point_end(self):
        run, rec, _ = self._run(lambda ctx: ScratchStrategy())
        ends = [e for e in rec.events() if e.kind == "adaptation_point.end"]
        assert [e.data["exec_predicted"] for e in ends] == run.series("exec_predicted")
        assert [e.data["exec_observed"] for e in ends] == run.series("exec_actual")


class TestSideCostingReusesTheAppliedPlan:
    """Nothing is priced on the side: a scratch-, diffusion- or
    adaptive-reset run makes its applied plan's moves and no others."""

    N_STEPS = 12

    @pytest.mark.parametrize(
        "factory", [ScratchStrategy, DiffusionStrategy, AdaptiveResetStrategy]
    )
    def test_each_distinct_move_set_is_made_once(self, factory, monkeypatch):
        """Every point after the first calls ``nest_moves`` exactly once."""
        moved = []
        real_nest_moves = redistribution.nest_moves

        def counting_nest_moves(old, new, nest_sizes, machine, cost, moves=None):
            moved.append(new.rects)
            return real_nest_moves(old, new, nest_sizes, machine, cost, moves)

        monkeypatch.setattr(redistribution, "nest_moves", counting_nest_moves)
        monkeypatch.setattr(dynamic, "nest_moves", counting_nest_moves)
        ctx = ExperimentContext(MACHINES["bgl-256"])
        stepper = WorkloadStepper(
            synthetic_workload(seed=0, n_steps=self.N_STEPS), factory(), ctx
        )
        per_point = []
        while not stepper.done:
            start = len(moved)
            stepper.advance()
            per_point.append(len(moved) - start)
        assert per_point == [0] + [1] * (self.N_STEPS - 1)

    def test_scratch_session_runs_no_diffusion_edit(self):
        session = Session("s", ScenarioSpec(strategy="scratch", steps=6, seed=3))
        session.run_to_completion()
        kinds = {event.kind for event in session.recorder.events()}
        assert "adaptation_point.end" in kinds
        assert not any(kind.startswith("tree.diffusion_edit") for kind in kinds)


class TestSectionVFParity:
    """The §V-F report path and the runs' own metrics agree exactly."""

    def test_report_pearson_comes_from_the_trail(self):
        report = prediction_accuracy_report(seed=5, n_steps=12, machine_key="bgl-256")
        run = report.run
        assert len(run.metrics) == 12
        # recompute from the raw records: same number, no drift possible
        recomputed = pearson(
            [m.exec_predicted for m in run.metrics],
            [m.exec_actual for m in run.metrics],
        )
        assert report.pearson_r == recomputed
        assert accuracy_report([run]) in report.text
        assert "§V-F" in report.text

    def test_three_strategy_table_matches_raw_metrics(self):
        ctx = ExperimentContext(MACHINES["bgl-256"])
        workload = synthetic_workload(seed=0, n_steps=10)
        runs = [
            run_workload(workload, strategy, ctx)
            for strategy in (
                ScratchStrategy(),
                DiffusionStrategy(),
                ctx.make_dynamic_strategy(),
            )
        ]

        def mare(pairs):
            errors = [abs(p - o) / o for p, o in pairs if o > 0]
            return sum(errors) / len(errors)

        table = _table(accuracy_report(runs))
        assert list(table) == ["scratch", "diffusion", "dynamic"]
        for run in runs:
            ms = run.metrics
            counts = Counter(m.strategy_choice or run.strategy for m in ms)
            r = pearson([m.exec_predicted for m in ms], [m.exec_actual for m in ms])
            exec_mare = mare((m.exec_predicted, m.exec_actual) for m in ms)
            redist_mare = mare((m.predicted_redist, m.measured_redist) for m in ms)
            assert table[run.strategy] == {
                "run strategy": run.strategy,
                "points": str(len(ms)),
                "exec Pearson r": f"{r:.3f}",
                "exec MARE": f"{100 * exec_mare:.1f}%",
                "redist MARE": f"{100 * redist_mare:.1f}%",
                "applied allocations": ", ".join(
                    f"{k}:{v}" for k, v in sorted(counts.items())
                ),
            }
        # the first point moves nothing, and the MARE skipped it
        assert all(run.metrics[0].measured_redist == 0.0 for run in runs)
