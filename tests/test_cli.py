"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_table4_args(self):
        args = build_parser().parse_args(["table4", "--seeds", "1", "2", "--steps", "9"])
        assert args.seeds == [1, 2] and args.steps == 9

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()

    def test_bench_args(self):
        args = build_parser().parse_args(
            ["bench", "--quick", "--repeats", "2", "--phases", "tree.scratch"]
        )
        assert args.quick and args.repeats == 2 and args.phases == ["tree.scratch"]

    def test_bench_scale_args(self):
        args = build_parser().parse_args(["bench", "--quick", "--suite", "scale"])
        assert args.suite == "scale"
        default = build_parser().parse_args(["bench", "--quick"])
        assert default.suite == "default"

    def test_bench_scale_default_output_is_scale_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        # a suiteless scale run must never clobber BENCH_baseline.json
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                ["bench", "--quick", "--suite", "scale",
                 "--phases", "scale.ledger_pairs", "--repeats", "1"]
            )
            == 0
        )
        assert (tmp_path / "BENCH_scale_baseline.json").exists()
        assert not (tmp_path / "BENCH_baseline.json").exists()


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "429" in out

    def test_table2(self, capsys):
        main(["table2"])
        assert "Table II" in capsys.readouterr().out

    def test_table3(self, capsys):
        main(["table3"])
        out = capsys.readouterr().out
        assert "BG/L 1024" in out and "fist" in out

    def test_table4_small(self, capsys):
        main(["table4", "--seeds", "0", "--steps", "6"])
        assert "Table IV" in capsys.readouterr().out

    def test_fig8(self, capsys):
        main(["fig8"])
        out = capsys.readouterr().out
        assert "diffusion" in out and "nest 6" in out

    def test_fig9(self, capsys):
        main(["fig9", "--step", "4"])
        assert "Fig. 9" in capsys.readouterr().out

    def test_fig10(self, capsys):
        main(["fig10", "--cases", "6", "--machine", "bgl-256"])
        assert "hop-bytes" in capsys.readouterr().out

    def test_fig12(self, capsys):
        main(["fig12", "--steps", "4"])
        assert "dynamic" in capsys.readouterr().out

    def test_prediction(self, capsys):
        main(["prediction", "--steps", "8"])
        assert "Pearson" in capsys.readouterr().out

    def test_compare(self, capsys):
        main(["compare", "--machine", "bgl-256", "--steps", "6"])
        out = capsys.readouterr().out
        assert "Strategy comparison" in out and "improvement" in out

    def test_example(self, capsys):
        main(["example"])
        out = capsys.readouterr().out
        assert "OLD" in out and "NEW" in out

    def test_track_small(self, capsys):
        main(["track", "--steps", "3", "--no-map"])
        out = capsys.readouterr().out
        assert "[t=  0]" in out

    def test_track_dynamics(self, capsys):
        main(["track", "--steps", "2", "--no-map", "--dynamics"])
        out = capsys.readouterr().out
        assert "[t=  0]" in out

    def test_workload_save_and_replay(self, capsys, tmp_path):
        path = str(tmp_path / "wl.json")
        main(["workload", "save", path, "--steps", "6"])
        assert "saved synthetic" in capsys.readouterr().out
        csv = str(tmp_path / "wl.csv")
        main([
            "workload", "replay", path,
            "--machine", "bgl-256", "--strategy", "scratch", "--csv", csv,
        ])
        out = capsys.readouterr().out
        assert "replay of synthetic" in out
        assert (tmp_path / "wl.csv").exists()

    def test_sweep_small(self, capsys, tmp_path):
        csv = str(tmp_path / "sweep.csv")
        main([
            "sweep", "--machines", "bgl-256", "--seeds", "0",
            "--steps", "5", "--csv", csv,
        ])
        out = capsys.readouterr().out
        assert "mean improvement per machine" in out
        assert (tmp_path / "sweep.csv").exists()

    def test_workload_bad_action(self):
        with pytest.raises(SystemExit):
            main(["workload", "munge", "x.json"])

    def test_bench_quick_subset(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "bench.json")
        code = main([
            "bench", "--quick", "--repeats", "1",
            "--phases", "tree.scratch", "tree.diffusion",
            "--output", out_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro bench" in out and "tree.scratch" in out
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert set(payload["phases"]) == {"tree.scratch", "tree.diffusion"}

    def test_bench_unknown_phase(self, capsys, tmp_path):
        code = main([
            "bench", "--quick", "--phases", "no.such.phase",
            "--output", str(tmp_path / "bench.json"),
        ])
        assert code == 2


class TestFaultsCommand:
    def test_quick_suite_exits_zero_and_reports(self, capsys, tmp_path):
        flight_path = tmp_path / "soak.jsonl"
        code = main([
            "faults", "run", "--suite", "quick",
            "--export-flight", str(flight_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults soak — quick" in out
        assert "verdict" in out and "OK" in out
        assert "recovery decisions" in out
        assert flight_path.exists()

    def test_mumbai_suite_json_reports_every_checkpoint(self, capsys):
        import json

        assert main(["faults", "run", "--suite", "mumbai", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["violations"] == []
        assert report["checks_run"] == {
            "audit.tiling": 114,
            "execute.conservation": 108,
            "ledger.busiest_link": 8,
            "ledger.totals": 1,
            "linkstate.conservation": 19,
            "pda.coverage": 20,
            "plan.conservation": 19,
            "scatter.tiling": 38,
            "tree.invariants": 19,
        }
        assert (report["data_checks"], report["data_failures"]) == (114, 0)

    def test_seed_override_accepted(self, capsys):
        assert main(["faults", "run", "--suite", "quick", "--seed", "7"]) in (0, 1)
        assert "seed" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["faults"])
