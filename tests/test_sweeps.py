"""Tests for the ``repro sweep`` verb: the Table IV study of
:func:`~repro.experiments.report.table4_report`, printed as a record
table and a per-machine table, with an optional CSV of the records."""

import contextlib
import csv
import io

import pytest

from repro.cli import main
from repro.experiments.report import table4_report

MACHINES = ("bgl-256", "fist-256")
SEEDS = (0, 1)
STEPS = 6


def _run_sweep(csv_path=None):
    argv = [
        "sweep",
        "--machines", *MACHINES,
        "--seeds", *map(str, SEEDS),
        "--steps", str(STEPS),
    ]
    if csv_path is not None:
        argv += ["--csv", str(csv_path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def _table(text, title):
    """The body rows of the table titled ``title``, as lists of cells."""
    lines = text.splitlines()
    start = lines.index(title)
    rows = []
    for line in lines[start + 4 :]:  # title, underline, header, rule
        if not line.strip():
            break
        rows.append([cell.strip() for cell in line.split("|")])
    return rows


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One ``repro sweep`` run: (stdout, CSV path)."""
    path = tmp_path_factory.mktemp("sweep") / "records.csv"
    return _run_sweep(path), path


@pytest.fixture(scope="module")
def study():
    return table4_report(SEEDS, STEPS, MACHINES)


def _records(study):
    """(machine, seed, run) in the verb's order: machine, seed, scratch
    before diffusion."""
    return [
        (key, seed, run)
        for key in MACHINES
        for seed in SEEDS
        for run in study.runs[f"{key}:{seed}"]
    ]


class TestSweep:
    def test_runs_all_cells(self, sweep):
        rows = _table(sweep[0], "sweep results")
        assert [(r[0], r[2], r[1]) for r in rows] == [
            (key, str(seed), strategy)
            for key in MACHINES
            for seed in SEEDS
            for strategy in ("scratch", "diffusion")
        ]

    def test_validation(self):
        with pytest.raises(KeyError, match="bgl-9999"):
            main(["sweep", "--machines", "bgl-256", "bgl-9999", "--seeds", "0"])

    def test_improvement_matrix(self, sweep, study):
        rows = _table(sweep[0], "mean improvement per machine")
        assert rows == [[k, f"{v:.1f}%"] for k, v in study.improvements.items()]
        assert [r[0] for r in rows] == list(MACHINES)

    def test_to_table(self, sweep, study):
        rows = _table(sweep[0], "sweep results")
        assert rows == [
            [
                key,
                run.strategy,
                str(seed),
                f"{run.total('measured_redist'):.3f}",
                f"{run.total('exec_actual'):.1f}",
                f"{run.mean('hop_bytes_avg', nonzero_only=True):.2f}",
                f"{100 * run.mean('overlap_fraction'):.1f}%",
            ]
            for key, seed, run in _records(study)
        ]

    def test_to_csv(self, sweep, study):
        out, path = sweep
        assert out.endswith(f"\nrecords -> {path}\n")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # one row per machine, seed and strategy
        assert len(rows) == len(MACHINES) * len(SEEDS) * 2
        for row, (key, seed, run) in zip(rows, _records(study)):
            assert row == {
                "machine": key,
                "strategy": run.strategy,
                "seed": str(seed),
                "workload": run.workload,
                "total_redist": repr(run.total("measured_redist")),
                "total_exec": repr(run.total("exec_actual")),
                "mean_hop_bytes": repr(run.mean("hop_bytes_avg", nonzero_only=True)),
                "mean_overlap": repr(run.mean("overlap_fraction")),
            }

    def test_records_deterministic(self, sweep):
        assert _run_sweep() == sweep[0].rpartition("\nrecords -> ")[0]


class TestImprovementSweep:
    def test_prebuilt_matches_table4_shape(self, sweep, study):
        """``repro sweep`` and ``repro table4`` print the same figure for
        each machine."""
        rows = _table(sweep[0], "mean improvement per machine")
        table4 = _table(study.text, study.text.splitlines()[0])
        assert len(table4) == len(rows) == len(MACHINES)
        assert [t[1].partition(" ")[0] for t in table4] == [r[1] for r in rows]
