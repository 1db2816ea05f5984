"""Tests for the bench regression gate (``repro.obs.compare``) and the
``repro bench --compare`` CLI wiring.

The acceptance criterion is exercised with injected timings — no sleeps,
no real benchmark runs: a synthetic 3× phase slowdown must exit nonzero,
an unmodified re-run must exit zero.
"""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.bench import BenchResult
from repro.obs.compare import (
    DEFAULT_ABS_FLOOR,
    DEFAULT_THRESHOLD,
    compare_bench,
    format_comparison,
    load_bench_json,
)
from repro.obs.stats import PhaseStats

ROOT = Path(__file__).resolve().parent.parent


def _stats(median: float) -> PhaseStats:
    return PhaseStats(
        count=3,
        total=3 * median,
        mean=median,
        median=median,
        p95=median,
        min=median,
        max=median,
    )


def _result(medians: dict[str, float], quick: bool = True) -> BenchResult:
    return BenchResult(
        phases={name: _stats(m) for name, m in medians.items()},
        repeats=3,
        quick=quick,
        unix_time=1.75e9,
        machine="bgl-256" if quick else "bgl-1024",
        git_describe="deadbee-test",
    )


def _doc(medians: dict[str, float], quick: bool = True, **extra) -> dict:
    doc = _result(medians, quick=quick).to_dict()
    doc.update(extra)
    return doc


class TestCompareBench:
    def test_unmodified_rerun_is_clean(self):
        doc = _doc({"e2e.compare": 0.4, "tree.scratch": 0.0002})
        cmp = compare_bench(doc, doc)
        assert cmp.ok
        assert cmp.exit_code == 0
        assert all(d.status == "ok" for d in cmp.deltas)
        assert cmp.missing_phases == () and cmp.new_phases == ()

    def test_three_x_slowdown_regresses(self):
        baseline = _doc({"e2e.compare": 0.1, "tree.scratch": 0.02})
        current = _doc({"e2e.compare": 0.3, "tree.scratch": 0.02})
        cmp = compare_bench(baseline, current)
        assert cmp.exit_code == 1
        (reg,) = cmp.regressions
        assert reg.name == "e2e.compare"
        assert reg.ratio == pytest.approx(3.0)
        assert reg.delta == pytest.approx(0.2)
        assert reg.status == "REGRESSED"

    def test_abs_floor_suppresses_microsecond_noise(self):
        # 10× slower but only 9 µs in absolute terms: pure timer noise
        baseline = _doc({"tree.scratch": 1e-6})
        current = _doc({"tree.scratch": 1e-5})
        cmp = compare_bench(baseline, current)
        assert cmp.exit_code == 0
        assert cmp.deltas[0].ratio == pytest.approx(10.0)
        assert not cmp.deltas[0].regressed

    def test_regression_needs_both_gates(self):
        # big absolute delta but small ratio: scheduler jitter, not a regression
        baseline = _doc({"e2e.compare": 1.0})
        current = _doc({"e2e.compare": 1.5})
        assert compare_bench(baseline, current).exit_code == 0

    def test_improvement_status(self):
        baseline = _doc({"e2e.compare": 0.4})
        current = _doc({"e2e.compare": 0.1})
        cmp = compare_bench(baseline, current)
        assert cmp.exit_code == 0
        assert cmp.deltas[0].status == "improved"

    def test_zero_baseline_ratio(self):
        baseline = _doc({"p": 0.0})
        cmp = compare_bench(baseline, _doc({"p": 0.1}))
        assert cmp.deltas[0].ratio == float("inf")
        assert cmp.deltas[0].regressed

    def test_quick_mode_mismatch_refused(self):
        cmp = compare_bench(_doc({"p": 0.1}, quick=False), _doc({"p": 0.1}, quick=True))
        assert cmp.exit_code == 2
        assert any("quick" in m for m in cmp.mismatches)

    def test_machine_mismatch_refused(self):
        cmp = compare_bench(
            _doc({"p": 0.1}, machine="bgl-1024"), _doc({"p": 0.1}, machine="bgl-256")
        )
        assert cmp.exit_code == 2
        assert any("machine" in m for m in cmp.mismatches)

    def test_schema1_baseline_without_machine_is_compatible(self):
        baseline = _doc({"p": 0.1})
        del baseline["machine"]
        del baseline["git_describe"]
        baseline["schema"] = 1
        cmp = compare_bench(baseline, _doc({"p": 0.1}))
        assert cmp.exit_code == 0

    def test_missing_and_new_phases_reported(self):
        cmp = compare_bench(_doc({"a": 0.1, "b": 0.1}), _doc({"b": 0.1, "c": 0.1}))
        assert cmp.missing_phases == ("a",)
        assert cmp.new_phases == ("c",)
        assert cmp.exit_code == 0  # informational, not a failure

    def test_threshold_and_floor_validated(self):
        doc = _doc({"p": 0.1})
        with pytest.raises(ValueError, match="threshold"):
            compare_bench(doc, doc, threshold=0.5)
        with pytest.raises(ValueError, match="abs_floor"):
            compare_bench(doc, doc, abs_floor=-1.0)

    def test_custom_threshold(self):
        baseline = _doc({"p": 0.1})
        current = _doc({"p": 0.15})
        assert compare_bench(baseline, current).exit_code == 0
        assert compare_bench(baseline, current, threshold=1.2).exit_code == 1

    def test_defaults_are_generous(self):
        assert DEFAULT_THRESHOLD == 2.0
        assert DEFAULT_ABS_FLOOR == 0.005


class TestLoadBenchJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "b.json"
        doc = _doc({"p": 0.1})
        path.write_text(json.dumps(doc))
        assert load_bench_json(path) == doc
        assert "kernels" not in doc

    def test_committed_baselines_load(self, tmp_path):
        # both committed baselines are recorded from the shipped path, with
        # no kernel-mode header
        scale = load_bench_json(ROOT / "BENCH_scale_baseline.json")
        assert "kernels" not in scale
        default = load_bench_json(ROOT / "BENCH_baseline.json")
        assert "kernels" not in default
        assert compare_bench(scale, scale).ok
        # a baseline from before the switch's removal still loads: the
        # loader ignores its stale "kernels" header
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({**scale, "kernels": "vector"}))
        assert compare_bench(load_bench_json(legacy), scale).ok

    @pytest.mark.parametrize(
        "doc, match",
        [
            ([1, 2], "not a JSON object"),
            ({"suite": "other", "schema": 2, "phases": {}}, "not a repro-bench"),
            ({"suite": "repro-bench", "schema": 99, "phases": {}}, "schema"),
            ({"suite": "repro-bench", "schema": 2, "phases": []}, "phases"),
        ],
    )
    def test_malformed_rejected(self, tmp_path, doc, match):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_bench_json(path)

    def test_phase_without_median_rejected(self):
        good = _doc({"p": 0.1})
        bad = _doc({"p": 0.1})
        bad["phases"]["p"] = {"mean_s": 0.1}
        with pytest.raises(ValueError, match="median_s"):
            compare_bench(good, bad)


class TestScaleTablesQuoteTheirJson:
    """Every median a scale table of ``docs/performance.md`` quotes is the
    committed bench JSON the table names, rounded as printed."""

    TABLE = re.compile(
        r"Medians from the\s+committed\s+`(BENCH_\w+\.json)`.*?\n\n((?:\|[^\n]*\n)+)", re.S
    )

    def test_quoted_medians_equal_the_committed_json(self):
        text = (ROOT / "docs" / "performance.md").read_text()
        tables = self.TABLE.findall(text)
        assert {name for name, _ in tables} == {
            "BENCH_scale_baseline.json",
            "BENCH_scale_full.json",
        }
        for name, table in tables:
            phases = load_bench_json(ROOT / name)["phases"]
            rows = [line.split("|")[1:-1] for line in table.splitlines()[2:]]
            assert rows, name
            for cells in rows:
                phase = cells[0].strip().strip("`")
                quoted = re.match(r"\s*(\d+(?:\.(\d+))?)", cells[-1])
                assert quoted, (name, phase, cells[-1])
                decimals = len(quoted.group(2) or "")
                median_ms = phases[phase]["median_s"] * 1e3
                assert f"{median_ms:.{decimals}f}" == quoted.group(1), (name, phase)


class TestFormatComparison:
    def test_verdicts(self):
        doc = _doc({"p": 0.1})
        assert "VERDICT: ok (exit 0)" in format_comparison(compare_bench(doc, doc))
        slow = format_comparison(compare_bench(doc, _doc({"p": 0.9})))
        assert "VERDICT: REGRESSED (p) (exit 1)" in slow
        mismatch = format_comparison(
            compare_bench(_doc({"p": 0.1}, quick=False), doc)
        )
        assert "not like-for-like" in mismatch and "(exit 2)" in mismatch

    def test_phase_table_and_sets(self):
        text = format_comparison(compare_bench(_doc({"a": 0.1}), _doc({"c": 0.1})))
        assert "missing from current run: a" in text
        assert "new (no baseline): c" in text


class TestParser:
    def test_bench_compare_args(self):
        args = build_parser().parse_args(
            ["bench", "--quick", "--compare", "B.json", "--threshold", "4.0",
             "--abs-floor", "0.01"]
        )
        assert args.compare == "B.json"
        assert args.threshold == 4.0 and args.abs_floor == 0.01

    def test_obs_report_args(self):
        args = build_parser().parse_args(
            ["obs", "report", "--steps", "4", "--html", "out.html"]
        )
        assert args.obs_command == "report"
        assert args.steps == 4 and args.html == "out.html"

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])


class TestCliBenchCompare:
    """End-to-end exit codes with an injected (monkeypatched) bench run."""

    def _patch_run(self, monkeypatch, medians, quick=True):
        def fake_run_bench(
            quick=False,
            repeats=None,
            phases=None,
            progress=None,
            suite="default",
        ):
            return _result(medians, quick=quick)

        monkeypatch.setattr("repro.obs.bench.run_bench", fake_run_bench)

    def _baseline(self, tmp_path, medians, quick=True):
        path = tmp_path / "BENCH_baseline.json"
        path.write_text(json.dumps(_doc(medians, quick=quick)))
        return path

    def test_unmodified_rerun_exits_zero(self, tmp_path, monkeypatch, capsys):
        self._patch_run(monkeypatch, {"e2e.compare": 0.1})
        baseline = self._baseline(tmp_path, {"e2e.compare": 0.1})
        assert main(["bench", "--quick", "--compare", str(baseline)]) == 0
        assert "VERDICT: ok" in capsys.readouterr().out

    def test_injected_slowdown_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        self._patch_run(monkeypatch, {"e2e.compare": 0.3})
        baseline = self._baseline(tmp_path, {"e2e.compare": 0.1})
        assert main(["bench", "--quick", "--compare", str(baseline)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_generous_threshold_tolerates_slowdown(self, tmp_path, monkeypatch):
        self._patch_run(monkeypatch, {"e2e.compare": 0.3})
        baseline = self._baseline(tmp_path, {"e2e.compare": 0.1})
        assert (
            main(
                ["bench", "--quick", "--compare", str(baseline), "--threshold", "4.0"]
            )
            == 0
        )

    def test_mode_mismatch_exits_two(self, tmp_path, monkeypatch):
        self._patch_run(monkeypatch, {"e2e.compare": 0.1})
        baseline = self._baseline(tmp_path, {"e2e.compare": 0.1}, quick=False)
        assert main(["bench", "--quick", "--compare", str(baseline)]) == 2

    def test_missing_baseline_exits_two(self, tmp_path, monkeypatch, capsys):
        self._patch_run(monkeypatch, {"e2e.compare": 0.1})
        code = main(["bench", "--quick", "--compare", str(tmp_path / "absent.json")])
        assert code == 2
        assert "cannot load baseline" in capsys.readouterr().err

    def test_compare_never_overwrites_baseline(self, tmp_path, monkeypatch):
        self._patch_run(monkeypatch, {"e2e.compare": 0.3})
        baseline = self._baseline(tmp_path, {"e2e.compare": 0.1})
        before = baseline.read_text()
        main(["bench", "--quick", "--compare", str(baseline)])
        assert baseline.read_text() == before

    def test_compare_with_output_writes_current(self, tmp_path, monkeypatch):
        self._patch_run(monkeypatch, {"e2e.compare": 0.1})
        baseline = self._baseline(tmp_path, {"e2e.compare": 0.1})
        out = tmp_path / "current.json"
        assert (
            main(
                ["bench", "--quick", "--compare", str(baseline),
                 "--output", str(out)]
            )
            == 0
        )
        written = json.loads(out.read_text())
        assert written["suite"] == "repro-bench"
        assert written["machine"] == "bgl-256"

    def test_plain_bench_writes_baseline(self, tmp_path, monkeypatch, capsys):
        self._patch_run(monkeypatch, {"e2e.compare": 0.1})
        out = tmp_path / "fresh.json"
        assert main(["bench", "--quick", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 2
        assert payload["git_describe"] == "deadbee-test"
        assert "baseline ->" in capsys.readouterr().out
