"""Tests for repro.trace: workload and run persistence."""

import json

import pytest

from repro.core import StepMetrics
from repro.experiments import synthetic_workload
from repro.trace import (
    load_workload,
    metrics_to_csv,
    save_run,
    save_workload,
)


def metric(step, redist=1.0, exec_actual=10.0):
    return StepMetrics(
        step=step, n_nests=3, n_retained=2,
        predicted_redist=redist * 1.1, measured_redist=redist,
        hop_bytes_avg=2.0, hop_bytes_total=1e6,
        overlap_fraction=0.4, exec_predicted=9.0, exec_actual=exec_actual,
        strategy_choice="diffusion",
    )


class TestWorkloadIO:
    def test_roundtrip_exact(self, tmp_path):
        wl = synthetic_workload(seed=4, n_steps=15)
        p = tmp_path / "wl.json"
        save_workload(wl, p)
        back = load_workload(p)
        assert back.steps == wl.steps
        assert back.name == wl.name

    def test_metadata_preserved(self, tmp_path):
        wl = synthetic_workload(seed=1, n_steps=3)
        p = tmp_path / "wl.json"
        save_workload(wl, p)
        assert load_workload(p).metadata["seed"] == 1

    def test_unsupported_format(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": 99, "steps": []}))
        with pytest.raises(ValueError):
            load_workload(p)

    def test_creates_parent_dirs(self, tmp_path):
        wl = synthetic_workload(seed=0, n_steps=2)
        p = tmp_path / "deep" / "dir" / "wl.json"
        save_workload(wl, p)
        assert p.exists()

    def test_tuple_metadata_survives(self, tmp_path):
        wl = synthetic_workload(seed=0, n_steps=2)
        p = tmp_path / "wl.json"
        save_workload(wl, p)  # metadata contains tuples -> lists
        meta = load_workload(p).metadata
        assert meta["n_range"] == [2, 9]


class TestRunIO:
    def test_roundtrip(self, tmp_path):
        ms = [metric(i, redist=float(i)) for i in range(5)]
        p = tmp_path / "run.json"
        save_run(ms, p, workload="wl", strategy="diffusion", machine="bgl-1024")
        doc = json.loads(p.read_text())
        assert [StepMetrics(**m) for m in doc["metrics"]] == ms
        assert (doc["workload"], doc["strategy"], doc["machine"]) == (
            "wl", "diffusion", "bgl-1024"
        )

    def test_csv(self, tmp_path):
        ms = [metric(i) for i in range(3)]
        p = tmp_path / "run.csv"
        metrics_to_csv(ms, p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 4
        assert "measured_redist" in lines[0]
