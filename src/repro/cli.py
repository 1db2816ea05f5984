"""Command-line interface: regenerate any paper experiment from a shell.

Usage examples::

    python -m repro table1                     # worked-example allocation
    python -m repro table4 --seeds 0 1 2       # synthetic improvements
    python -m repro fig10 --cases 70           # hop-bytes series
    python -m repro fig12                      # dynamic strategy
    python -m repro track --steps 20           # live cloud-tracking demo
    python -m repro compare --machine bgl-256  # strategy comparison
    python -m repro example                    # Figs. 2-8 with ASCII maps

Every subcommand prints the same report the corresponding benchmark writes
to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs import FlightRecorder

__all__ = ["main", "build_parser"]


def _package_version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return str(getattr(repro, "__version__", "unknown"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Diffusion-Based Processor Reallocation "
            "Strategy for Tracking Multiple Dynamically Varying Weather "
            "Phenomena' (ICPP 2013)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I: worked-example allocation")
    sub.add_parser("table2", help="Table II: scratch re-allocation")
    sub.add_parser("table3", help="Table III: machine configurations")

    p = sub.add_parser("table4", help="Table IV: synthetic redistribution improvement")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--steps", type=int, default=70)

    sub.add_parser("fig8", help="Figs. 2/4/8: the diffusion worked example")

    p = sub.add_parser("fig9", help="Fig. 9: clustering comparison")
    p.add_argument("--step", type=int, default=26)
    p.add_argument("--seed", type=int, default=2005)

    p = sub.add_parser("fig10", help="Figs. 10-11: hop-bytes and overlap")
    p.add_argument("--cases", type=int, default=70)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--machine", default="bgl-1024")

    p = sub.add_parser("fig12", help="Fig. 12: dynamic strategy")
    p.add_argument("--steps", type=int, default=12)
    p.add_argument("--seed", type=int, default=3)

    p = sub.add_parser("real-trace", help="§V-D: Mumbai-2005-like trace")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=2005)

    p = sub.add_parser("prediction", help="§V-F: execution-time prediction accuracy")
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--seed", type=int, default=5)

    p = sub.add_parser("track", help="live cloud-tracking demo with field maps")
    p.add_argument("--steps", type=int, default=15)
    p.add_argument("--seed", type=int, default=2005)
    p.add_argument("--no-map", action="store_true", help="skip the field map")
    p.add_argument(
        "--dynamics",
        action="store_true",
        help="use the emergent advection-condensation model instead of the "
        "scripted Mumbai scenario",
    )

    p = sub.add_parser("compare", help="strategy comparison on a machine preset")
    p.add_argument("--machine", default="bgl-1024")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=70)

    sub.add_parser("example", help="the worked example with ASCII allocation maps")

    p = sub.add_parser("sweep", help="machine x seed x strategy sweep (Table IV style)")
    p.add_argument("--machines", nargs="+", default=["bgl-1024", "bgl-256", "fist-256"])
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--csv", help="write the record table as CSV here")

    p = sub.add_parser("workload", help="generate, save and replay workload traces")
    p.add_argument("action", choices=["save", "replay"])
    p.add_argument("path", help="JSON trace file")
    p.add_argument("--kind", choices=["synthetic", "mumbai", "dynamical"], default="synthetic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=70)
    p.add_argument("--machine", default="bgl-1024")
    p.add_argument("--strategy", choices=["scratch", "diffusion", "dynamic"], default="diffusion")
    p.add_argument("--csv", help="also write per-step metrics CSV here (replay only)")

    p = sub.add_parser(
        "lint",
        help="run the reprolint static-analysis pass over the source tree",
        description=(
            "Domain-aware static analysis: seeded-RNG policy, float-equality "
            "bans in cost paths, allocation immutability, validation coverage, "
            "exception hygiene, __all__ consistency and clock-read "
            "centralisation.  Exits non-zero when any finding remains."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    p.add_argument("--format", choices=["text", "json", "sarif"], default="text")
    p.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all), e.g. R001,R005",
    )
    p.add_argument(
        "--changed",
        action="store_true",
        help="report findings only for files changed since the merge base "
        "with --base (the whole project is still analysed, so "
        "cross-module rules stay sound)",
    )
    p.add_argument(
        "--base",
        default="origin/main",
        help="base ref for --changed (default origin/main; falls back to "
        "main when the remote ref is absent)",
    )
    p.add_argument("--no-hints", action="store_true", help="omit fix hints (text format)")
    p.add_argument("--list-rules", action="store_true", help="print the rule catalogue and exit")

    p = sub.add_parser(
        "bench",
        help="run the pinned performance-baseline suite",
        description=(
            "Times the reproduction's hot phases (field synthesis, split "
            "files, PDA+NNC, tree edits, transfer matrices, the folded "
            "mapping, network simulation, data-plane round trip, "
            "end-to-end comparison) on pinned inputs and writes per-phase "
            "median/p95 statistics as JSON."
        ),
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="smaller machine and fewer repeats (CI-friendly)",
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repeats per phase (default: 3 quick, 5 full)",
    )
    p.add_argument(
        "--output",
        default=None,
        help="baseline JSON path (default: BENCH_baseline.json, or "
        "BENCH_scale_baseline.json for --suite scale)",
    )
    p.add_argument(
        "--phases",
        nargs="+",
        default=None,
        help="subset of phase names to run (default: all)",
    )
    p.add_argument(
        "--suite",
        choices=["default", "scale"],
        default="default",
        help="phase suite: 'default' times the pinned hot paths, 'scale' "
        "times steady-state adaptation steps across machine presets up "
        "to 64k ranks (quick stops at 4096)",
    )
    p.add_argument(
        "--trace",
        default=None,
        help="also write a Chrome trace-event JSON of one instrumented "
        "comparison run to this path",
    )
    p.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE.json",
        help="compare against a saved baseline instead of writing one; "
        "exits 1 on regression, 2 when not like-for-like",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative regression threshold on per-phase medians "
        "(default 2.0 = flag only >2x slowdowns)",
    )
    p.add_argument(
        "--abs-floor",
        type=float,
        default=None,
        help="absolute regression floor in seconds (default 0.005); both "
        "the threshold and the floor must be exceeded to flag",
    )

    p = sub.add_parser(
        "obs",
        help="observability reports: flight recorder, §V-F accuracy, comm ledger",
        description=(
            "Render the second observability layer: the flight-recorder "
            "event ring, the §V-F prediction accuracy of each strategy "
            "(Pearson r of predicted vs. observed execution time, the mean "
            "relative error of the execution and redistribution "
            "predictions, and how often each allocation was applied), and "
            "the per-rank communication ledger."
        ),
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "report",
        help="run an instrumented comparison and render flight+accuracy+ledger",
    )
    p.add_argument("--machine", default="bgl-256")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=12)
    p.add_argument(
        "--workload",
        choices=["synthetic", "mumbai"],
        default="synthetic",
        help="which workload to instrument (default synthetic)",
    )
    p.add_argument(
        "--html", default=None, help="also write a standalone HTML report here"
    )
    p.add_argument(
        "--flight-jsonl",
        default=None,
        help="replay an exported flight log through the exporters instead "
        "of running a workload",
    )
    p.add_argument(
        "--export-flight",
        default=None,
        help="write the run's flight ring as JSONL here",
    )
    p.add_argument(
        "--tail", type=int, default=20, help="flight events to show (default 20)"
    )
    p = obs_sub.add_parser(
        "serve",
        help="mission control: replay flight logs or follow a live fleet in "
        "a browser",
        description=(
            "Boots the mission-control web UI (stdlib HTTP, no framework): "
            "a canvas view of the processor grid, nest rectangles, per-link "
            "heat and the scratch-vs-diffusion decision timeline.  "
            "--replay scrubs through exported flight JSONL files; --attach "
            "follows a running `repro serve` fleet live."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8643)
    p.add_argument(
        "--replay",
        nargs="+",
        default=None,
        metavar="JSONL",
        help="flight JSONL file(s) to serve as read-only replay sessions",
    )
    p.add_argument(
        "--attach",
        default=None,
        metavar="HOST:PORT",
        help="proxy a live `repro serve` instance instead of replaying files",
    )

    p = sub.add_parser(
        "faults",
        help="fault injection under an armed sanitizer: break the pipeline "
        "or the serving tier on purpose",
        description=(
            "Seeded, deterministic fault suites, every one under its own "
            "armed conservation sanitizer.  The machine-layer suites crash "
            "ranks, degrade links, slow stragglers and damage split files "
            "while the reallocator tracks a workload on a real data plane; "
            "recovery shrinks the processor grid, restores lost nest data "
            "from the checkpoint, and every step is audited for tiling and "
            "bit-for-bit data.  The fleet suites crash workers, stall and "
            "kill sessions, misbehave as NDJSON consumers and "
            "damage the journal of a live serve fleet, whose survivors must "
            "match unperturbed twins bit for bit.  Exits non-zero when the "
            "verdict is not ok.  Setting REPRO_SANITIZE=1 arms the same "
            "checkpoints in any other repro command.  See docs/robustness.md."
        ),
    )
    faults_sub = p.add_subparsers(dest="faults_command", required=True)
    p = faults_sub.add_parser(
        "run", help="run a seeded fault suite and report its verdict"
    )
    p.add_argument(
        "--suite",
        choices=["quick", "full", "mumbai", "fleet-quick", "fleet-full"],
        default="quick",
        help="quick = two rank crashes (CI gate); full = every machine "
        "fault kind; mumbai = the flagship trace, no faults; fleet-quick = "
        "worker-crash + journal-truncate campaigns (CI gate); fleet-full "
        "adds HTTP consumer churn and journal corruption",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the suite seed (default 42 for quick and full, 2005 for "
        "mumbai, 0 for the fleet suites)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the deterministic verdict as JSON (CI diffs two runs)",
    )
    p.add_argument(
        "--export-flight",
        default=None,
        help="write the run's flight events as JSONL here",
    )
    p.add_argument(
        "--tail",
        type=int,
        default=0,
        help="also show the last N flight events (on stderr with --json)",
    )

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant reallocation service (HTTP, stdlib only)",
        description=(
            "Starts the asyncio serving tier: a session store with a crash "
            "journal, a pool of stateless workers advancing every submitted "
            "scenario one adaptation point at a time, and a plain-HTTP API "
            "(POST /sessions, GET /sessions/{id}/events, /healthz, /metrics). "
            "See docs/serving.md."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument(
        "--workers", type=int, default=4, help="scheduler worker tasks (default 4)"
    )
    p.add_argument(
        "--capacity",
        type=int,
        default=256,
        help="max sessions held at once (finished ones are evicted when full)",
    )
    p.add_argument(
        "--journal",
        default=None,
        help="JSONL journal path; an existing journal is recovered on start",
    )
    p.add_argument(
        "--step-timeout",
        type=float,
        default=30.0,
        help="seconds one adaptation point may take before retry/failure",
    )

    p = sub.add_parser(
        "loadgen",
        help="closed-loop load generator for the serving tier",
        description=(
            "Submits a seeded fleet of scenarios, drives them to completion "
            "and reports sessions/sec plus the p50/p95 decision latency. "
            "Drives an in-process scheduler by default, the full in-process "
            "HTTP stack with --via-http, or an external server with --url. "
            "Exits 1 if any session failed."
        ),
    )
    p.add_argument("--sessions", type=int, default=16)
    p.add_argument("--steps", type=int, default=6, help="adaptation points per session")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", choices=["synthetic", "mumbai"], default="synthetic")
    p.add_argument("--machine", default="bgl-256")
    p.add_argument(
        "--strategy", choices=["scratch", "diffusion", "dynamic"], default="diffusion"
    )
    p.add_argument(
        "--via-http",
        action="store_true",
        help="drive an in-process HTTP server instead of the bare scheduler",
    )
    p.add_argument(
        "--url", default=None, help="drive an external server at host:port instead"
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 3 steps per session over the in-process HTTP stack",
    )
    p.add_argument("--json", action="store_true", help="print the result as JSON")
    return parser


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import (
        DEFAULT_BASELINE_PATH,
        SCALE_BASELINE_PATH,
        format_bench,
        run_bench,
        write_baseline,
    )
    from repro.obs.compare import (
        DEFAULT_ABS_FLOOR,
        DEFAULT_THRESHOLD,
        compare_bench,
        format_comparison,
        load_bench_json,
    )

    baseline = None
    if args.compare is not None:
        try:
            baseline = load_bench_json(args.compare)
        except (OSError, ValueError) as exc:
            print(f"repro bench: cannot load baseline: {exc}", file=sys.stderr)
            return 2
    try:
        result = run_bench(
            quick=args.quick,
            repeats=args.repeats,
            phases=args.phases,
            progress=lambda name: print(f"  timing {name} ...", file=sys.stderr),
            suite=args.suite,
        )
    except ValueError as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 2
    print(format_bench(result))
    exit_code = 0
    if baseline is not None:
        try:
            comparison = compare_bench(
                baseline,
                result.to_dict(),
                threshold=(
                    args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
                ),
                abs_floor=(
                    args.abs_floor if args.abs_floor is not None else DEFAULT_ABS_FLOOR
                ),
            )
        except ValueError as exc:
            print(f"repro bench: {exc}", file=sys.stderr)
            return 2
        print()
        print(format_comparison(comparison))
        exit_code = comparison.exit_code
        # comparing never overwrites the baseline it compared against;
        # write the current numbers only where explicitly asked
        if args.output:
            write_baseline(result, args.output)
            print(f"\ncurrent run -> {args.output}")
    else:
        default_path = (
            SCALE_BASELINE_PATH if args.suite == "scale" else DEFAULT_BASELINE_PATH
        )
        path = args.output or default_path
        write_baseline(result, path)
        print(f"\nbaseline -> {path}")
    if args.trace:
        from repro.obs import FlightRecorder, use_recorder, write_chrome_trace

        recorder = FlightRecorder()
        with use_recorder(recorder):
            from repro.core import DiffusionStrategy
            from repro.experiments import synthetic_workload
            from repro.experiments.runner import ExperimentContext, run_workload
            from repro.topology import MACHINES

            ctx = ExperimentContext(MACHINES["bgl-256"])
            run_workload(
                synthetic_workload(seed=0, n_steps=10), DiffusionStrategy(), ctx
            )
        write_chrome_trace(recorder, args.trace)
        print(f"chrome trace -> {args.trace}")
    return exit_code


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import (
        format_report,
        html_report,
        load_flight_jsonl,
        replay_flight,
    )

    sections: list[tuple[str, str]]
    if args.flight_jsonl:
        try:
            events = load_flight_jsonl(args.flight_jsonl)
        except (OSError, ValueError) as exc:
            print(f"repro obs report: {exc}", file=sys.stderr)
            return 2
        replayed = replay_flight(events)
        skipped = getattr(events, "skipped_lines", 0)
        heading = f"replayed flight log ({args.flight_jsonl}, {len(events)} events"
        if skipped:
            heading += f", {skipped} truncated trailing line(s) skipped"
        sections = [
            (
                heading + ")",
                format_report(replayed, title="replayed flight events"),
            )
        ]
    else:
        sections = _instrumented_obs_sections(args)
    for heading, text in sections:
        print(f"== {heading} ==")
        print(text)
        print()
    if args.html:
        Path(args.html).write_text(
            html_report(sections, title="repro obs report"), encoding="utf-8"
        )
        print(f"html report -> {args.html}")
    return 0


def _instrumented_obs_sections(args: argparse.Namespace) -> list[tuple[str, str]]:
    """Run the three strategies instrumented and build the report sections."""
    from repro.core import DiffusionStrategy, ScratchStrategy
    from repro.experiments import mumbai_trace_workload, synthetic_workload
    from repro.experiments.report import accuracy_report
    from repro.experiments.runner import ExperimentContext, RunResult, run_workload
    from repro.mpisim.ledger import CommLedger, format_ledger
    from repro.obs import FlightRecorder, format_flight, format_report, use_recorder
    from repro.topology import MACHINES

    machine = MACHINES[args.machine]
    recorder = FlightRecorder()
    if getattr(args, "workload", "synthetic") == "mumbai":
        workload = mumbai_trace_workload(seed=args.seed, n_steps=args.steps)
    else:
        workload = synthetic_workload(seed=args.seed, n_steps=args.steps)
    context = ExperimentContext(machine)
    ledgers: dict[str, CommLedger] = {}
    runs: list[RunResult] = []
    with use_recorder(recorder):
        for strategy in (
            ScratchStrategy(),
            DiffusionStrategy(),
            context.make_dynamic_strategy(),
        ):
            ledger = CommLedger(machine.ncores)
            context.ledger = ledger
            runs.append(run_workload(workload, strategy, context))
            ledgers[runs[-1].strategy] = ledger
    if args.export_flight:
        recorder.write_jsonl(args.export_flight)
        print(f"flight log -> {args.export_flight}", file=sys.stderr)
    sections = [
        (
            "observed phases",
            format_report(
                recorder,
                title=f"observed phases — {machine.name}, seed {args.seed}, "
                f"{args.steps} steps x 3 strategies",
            ),
        ),
        ("flight recorder", format_flight(recorder, tail=args.tail)),
        (
            "prediction accuracy (§V-F)",
            accuracy_report(runs, title=f"three strategies on {machine.name}"),
        ),
    ]
    for name, ledger in ledgers.items():
        sections.append(
            (
                f"communication ledger — {name}",
                format_ledger(ledger, title=f"{name} on {machine.name}"),
            )
        )
    return sections


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.obs import format_flight

    if args.suite.startswith("fleet-"):
        ok, flight = _run_fleet_suite(args)
    else:
        ok, flight = _run_soak_suite(args)
    if args.tail:
        # with --json, stdout carries the verdict document alone
        out = sys.stderr if args.json else sys.stdout
        print(file=out)
        print(format_flight(flight, tail=args.tail), file=out)
    if args.export_flight:
        flight.write_jsonl(args.export_flight)
        print(f"flight log -> {args.export_flight}", file=sys.stderr)
    return 0 if ok else 1


def _run_soak_suite(args: argparse.Namespace) -> tuple[bool, FlightRecorder]:
    import dataclasses
    import json

    from repro.faults import SUITES, format_recoveries, format_soak_report, run_soak
    from repro.mpisim.ledger import CommLedger, format_ledger
    from repro.obs import FlightRecorder, use_recorder

    config = SUITES[args.suite]
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    flight = FlightRecorder()
    ledger = CommLedger(config.machine().ncores)
    with use_recorder(flight):
        report = run_soak(config, ledger=ledger)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_soak_report(report))
        print()
        if report.recoveries:
            print(format_recoveries(report))
            print()
        print(format_ledger(ledger, title=f"soak traffic — {config.name} suite"))
    if not report.ok:
        print(
            f"repro faults run: FAILED — {report.invariant_violations} invariant "
            f"violation(s), {report.data_failures} data failure(s), "
            f"{len(report.violations)} sanitizer violation(s)",
            file=sys.stderr,
        )
    return report.ok, flight


def _run_fleet_suite(args: argparse.Namespace) -> tuple[bool, FlightRecorder]:
    import json

    from repro.faults.fleet import build_suite, format_campaign_report, run_campaign
    from repro.obs import FlightRecorder

    seed = args.seed if args.seed is not None else 0
    reports = []
    for config in build_suite(args.suite, seed=seed):
        report = run_campaign(config)
        reports.append(report)
        if not args.json:
            print(format_campaign_report(report))
            print()
    if args.json:
        print(json.dumps([r.verdict() for r in reports], indent=2, sort_keys=True))
    flight = FlightRecorder(capacity=512 * len(reports))
    for report in reports:
        for event in report.flight.events():
            flight.emit(event.kind, **event.data)
    failed = [r.name for r in reports if not r.ok]
    if failed:
        print(
            f"repro faults run: FAILED — campaign(s) {', '.join(failed)} "
            f"did not meet their verdict",
            file=sys.stderr,
        )
    elif not args.json:
        print(f"repro faults run: all {len(reports)} campaign(s) PASS")
    return not failed, flight


def _changed_python_files(base: str) -> list[str]:
    """Python files changed since the merge base with ``base``.

    Includes committed, staged, unstaged and untracked files, so the
    pre-push and CI views agree.  Raises ``ValueError`` when the merge
    base cannot be determined (not a git checkout, unknown ref).
    """
    import subprocess

    def git(*cmd: str) -> subprocess.CompletedProcess[str]:
        return subprocess.run(
            ["git", *cmd], capture_output=True, text=True, check=False
        )

    merge_base = git("merge-base", "HEAD", base)
    if merge_base.returncode != 0 and base == "origin/main":
        merge_base = git("merge-base", "HEAD", "main")
    if merge_base.returncode != 0:
        raise ValueError(
            f"cannot resolve merge base with {base!r}: "
            f"{merge_base.stderr.strip() or 'not a git checkout?'}"
        )
    ref = merge_base.stdout.strip()
    changed = git("diff", "--name-only", ref)
    if changed.returncode != 0:
        raise ValueError(f"git diff failed: {changed.stderr.strip()}")
    untracked = git("ls-files", "--others", "--exclude-standard")
    names = set(changed.stdout.splitlines()) | set(untracked.stdout.splitlines())
    return sorted(n for n in names if n.endswith(".py"))


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        format_json,
        format_rule_table,
        format_sarif,
        format_text,
        lint_paths,
    )

    if args.list_rules:
        print(format_rule_table())
        return 0
    paths = args.paths
    if not paths:
        from pathlib import Path

        import repro

        paths = [str(Path(repro.__file__).parent)]
    select = [rid.strip() for rid in args.select.split(",")] if args.select else None
    only = None
    if args.changed:
        try:
            only = _changed_python_files(args.base)
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        if not only:
            print("repro lint: no python files changed", file=sys.stderr)
            return 0
    try:
        report = lint_paths(paths, select=select, only=only)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(report))
    elif args.format == "sarif":
        print(format_sarif(report))
    else:
        print(format_text(report, show_hints=not args.no_hints))
    return 0 if report.ok else 1


def _cmd_track(args: argparse.Namespace) -> None:
    from repro.core import AdaptationStepper, DiffusionStrategy, ProcessorReallocator
    from repro.perfmodel import ExecTimePredictor, ExecutionOracle, ProfileTable
    from repro.topology import blue_gene_l
    from repro.viz import render_field
    from repro.wrf import NestTracker, WrfLikeModel, detect_nests, mumbai_2005_scenario

    machine = blue_gene_l(1024)
    if getattr(args, "dynamics", False):
        from repro.wrf.dynamics import DynamicalModel
        from repro.wrf.model import DomainConfig

        config = DomainConfig()
        model = DynamicalModel(config, seed=args.seed)
    else:
        scenario = mumbai_2005_scenario(seed=args.seed, n_steps=args.steps)
        config = scenario.config
        model = WrfLikeModel(config, scenario.birth_fn, scenario.initial_systems)
    tracker = NestTracker(refinement=config.nest_refinement)
    predictor = ExecTimePredictor(ProfileTable(ExecutionOracle()))
    realloc = ProcessorReallocator(machine, DiffusionStrategy(), predictor)
    stepper = AdaptationStepper(realloc)
    for t in range(args.steps):
        model.step()
        found = detect_nests(model, tracker)
        plan = stepper.step(found.nests).reallocation.plan
        if not found.nests:
            print(f"[t={t:3d}] clear skies")
            continue
        line = f"[t={t:3d}] nests +{len(found.spawned)} ~{len(found.retained)} -{len(found.deleted)}"
        if plan and plan.moves:
            line += (
                f" | overlap {100 * plan.overlap_fraction:5.1f}%"
                f" redist {plan.measured_time * 1e3:6.1f} ms"
            )
        print(line)
    if not args.no_map:
        _, olr = model.fields()
        print("\nOLR field (dark = deep cloud), final step:")
        print(render_field(olr, width=72, invert=True))
        if realloc.allocation is not None and not realloc.allocation.is_empty:
            from repro.viz import render_allocation

            print("\nfinal processor allocation:")
            print(render_allocation(realloc.allocation))


def _cmd_compare(args: argparse.Namespace) -> None:
    from repro.core import DiffusionStrategy, ScratchStrategy, summarize_improvement
    from repro.experiments import synthetic_workload
    from repro.experiments.report import accuracy_report
    from repro.experiments.runner import ExperimentContext, run_workload
    from repro.topology import MACHINES
    from repro.util.tables import format_table
    from repro.viz import sparkline

    machine = MACHINES[args.machine]
    ctx = ExperimentContext(machine)
    wl = synthetic_workload(seed=args.seed, n_steps=args.steps)
    runs = [
        run_workload(wl, s, ctx)
        for s in (ScratchStrategy(), DiffusionStrategy(), ctx.make_dynamic_strategy())
    ]
    rows = [
        (
            r.strategy,
            f"{r.total('measured_redist'):.3f} s",
            f"{r.total('exec_actual'):.1f} s",
            f"{r.mean('hop_bytes_avg', nonzero_only=True):.2f}",
            f"{100 * r.mean('overlap_fraction'):.1f}%",
        )
        for r in runs
    ]
    print(format_table(
        ["Strategy", "Σ redistribution", "Σ execution", "avg hop-bytes", "avg overlap"],
        rows,
        title=f"Strategy comparison on {machine.name}, seed {args.seed}",
    ))
    print("\nper-step measured redistribution:")
    for r in runs:
        print(f"  {r.strategy:10s} {sparkline(r.series('measured_redist'))}")
    print(
        f"\ndiffusion vs scratch improvement: "
        f"{summarize_improvement(runs[0].metrics, runs[1].metrics):.1f}%"
    )
    print()
    print(accuracy_report(runs))


def _cmd_sweep(args: argparse.Namespace) -> None:
    import csv
    import pathlib

    from repro.experiments.report import table4_report
    from repro.util.tables import format_table

    report = table4_report(tuple(args.seeds), args.steps, tuple(args.machines))
    # one record per machine, seed and strategy, in run order
    records = [
        (
            key,
            run.strategy,
            seed,
            run.workload,
            run.total("measured_redist"),
            run.total("exec_actual"),
            run.mean("hop_bytes_avg", nonzero_only=True),
            run.mean("overlap_fraction"),
        )
        for key in args.machines
        for seed in args.seeds
        for run in report.runs[f"{key}:{seed}"]
    ]
    print(format_table(
        ["machine", "strategy", "seed", "Σredist (s)", "Σexec (s)", "hop-bytes", "overlap"],
        [
            (
                key,
                strategy,
                seed,
                f"{redist:.3f}",
                f"{exec_:.1f}",
                f"{hops:.2f}",
                f"{100 * overlap:.1f}%",
            )
            for key, strategy, seed, _, redist, exec_, hops, overlap in records
        ],
        title="sweep results",
    ))
    print()
    print(format_table(
        ["Machine", "diffusion improvement over scratch"],
        [(k, f"{v:.1f}%") for k, v in report.improvements.items()],
        title="mean improvement per machine",
    ))
    if args.csv:
        path = pathlib.Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "machine", "strategy", "seed", "workload",
                "total_redist", "total_exec", "mean_hop_bytes", "mean_overlap",
            ])
            writer.writerows(records)
        print(f"\nrecords -> {args.csv}")


def _cmd_workload(args: argparse.Namespace) -> None:
    from repro.trace import load_workload, metrics_to_csv, save_workload

    if args.action == "save":
        if args.kind == "synthetic":
            from repro.experiments import synthetic_workload

            wl = synthetic_workload(seed=args.seed, n_steps=args.steps)
        elif args.kind == "mumbai":
            from repro.experiments import mumbai_trace_workload

            wl = mumbai_trace_workload(seed=args.seed, n_steps=args.steps)
        else:
            from repro.experiments import dynamical_trace_workload

            wl = dynamical_trace_workload(seed=args.seed, n_steps=args.steps)
        save_workload(wl, args.path)
        counts = wl.nest_counts()
        print(
            f"saved {wl.name}: {wl.n_steps} steps, "
            f"{min(counts)}-{max(counts)} nests -> {args.path}"
        )
        return

    # replay
    from repro.core import DiffusionStrategy, ScratchStrategy
    from repro.experiments.runner import ExperimentContext, run_workload
    from repro.topology import MACHINES
    from repro.util.tables import format_table

    wl = load_workload(args.path)
    ctx = ExperimentContext(MACHINES[args.machine])
    if args.strategy == "scratch":
        strategy = ScratchStrategy()
    elif args.strategy == "diffusion":
        strategy = DiffusionStrategy()
    else:
        strategy = ctx.make_dynamic_strategy()
    run = run_workload(wl, strategy, ctx)
    rows = [
        ("Σ measured redistribution", f"{run.total('measured_redist'):.3f} s"),
        ("Σ execution", f"{run.total('exec_actual'):.1f} s"),
        ("mean hop-bytes", f"{run.mean('hop_bytes_avg', nonzero_only=True):.2f}"),
        ("mean overlap", f"{100 * run.mean('overlap_fraction'):.1f}%"),
    ]
    print(format_table(
        ["Metric", "Value"],
        rows,
        title=f"replay of {wl.name} with {strategy.name} on {MACHINES[args.machine].name}",
    ))
    if args.csv:
        metrics_to_csv(run.metrics, args.csv)
        print(f"per-step metrics -> {args.csv}")


def _cmd_example(_args: argparse.Namespace) -> None:
    from repro.experiments import fig8_report
    from repro.viz import render_allocation_diff

    report = fig8_report()
    print(report.text)
    print("\ndiffusion transition (maps):")
    print(render_allocation_diff(report.old_allocation, report.diffusion_allocation, max_width=32))
    print("\nscratch transition (maps):")
    print(render_allocation_diff(report.old_allocation, report.scratch_allocation, max_width=32))


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.serve.api import ServeServer
    from repro.serve.scheduler import SchedulerConfig, SessionScheduler
    from repro.serve.store import SessionStore

    if args.journal is not None and Path(args.journal).exists():
        store = SessionStore.recover(args.journal, capacity=args.capacity)
        print(f"recovered {len(store)} session(s) from {args.journal}")
    else:
        store = SessionStore(capacity=args.capacity, journal_path=args.journal)
    scheduler = SessionScheduler(
        store,
        SchedulerConfig(workers=args.workers, step_timeout=args.step_timeout),
    )
    server = ServeServer(store, scheduler, host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        print(f"serving on http://{server.host}:{server.port} (Ctrl-C to stop)")
        scheduler.submit_all_pending()
        try:
            await asyncio.Event().wait()  # until interrupted
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _cmd_obs_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs.webui import ObsServer

    try:
        server = ObsServer(
            host=args.host,
            port=args.port,
            replay=tuple(args.replay or ()),
            attach=args.attach or "",
        )
    except (OSError, ValueError) as exc:
        print(f"repro obs serve: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        await server.start()
        mode = f"attached to {args.attach}" if args.attach else "replay"
        print(
            f"mission control on http://{server.host}:{server.port} "
            f"[{mode}] (Ctrl-C to stop)"
        )
        try:
            await asyncio.Event().wait()  # until interrupted
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.serve.loadgen import LoadgenConfig, run_loadgen

    config = LoadgenConfig(
        sessions=args.sessions,
        steps=3 if args.quick else args.steps,
        workers=args.workers,
        seed=args.seed,
        workload=args.workload,
        machine=args.machine,
        strategy=args.strategy,
        via_http=args.via_http or args.quick,
        url=args.url or "",
    )
    result = run_loadgen(config)
    if args.json:
        print(json_mod.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"{result.sessions} sessions: {result.completed} done, "
            f"{result.failed} failed in {result.duration:.2f}s "
            f"({result.sessions_per_sec:.1f} sessions/s, "
            f"{result.steps_per_sec:.1f} steps/s)"
        )
        if result.latency is not None:
            lat = result.latency
            print(
                f"decision latency: p50 {lat.median * 1e3:.2f} ms, "
                f"p95 {lat.p95 * 1e3:.2f} ms over {lat.count} decisions"
            )
    return 1 if result.failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.command
    if cmd == "table1":
        from repro.experiments import table1_report

        print(table1_report().text)
    elif cmd == "table2":
        from repro.experiments import table2_report

        print(table2_report().text)
    elif cmd == "table3":
        from repro.experiments import table3_report

        print(table3_report())
    elif cmd == "table4":
        from repro.experiments import table4_report

        print(table4_report(seeds=tuple(args.seeds), n_steps=args.steps).text)
    elif cmd == "fig8":
        from repro.experiments import fig8_report

        print(fig8_report().text)
    elif cmd == "fig9":
        from repro.experiments import fig9_report

        print(fig9_report(seed=args.seed, step=args.step).text)
    elif cmd == "fig10":
        from repro.experiments import fig10_fig11_report

        print(
            fig10_fig11_report(
                seed=args.seed, n_cases=args.cases, machine_key=args.machine
            ).text
        )
    elif cmd == "fig12":
        from repro.experiments import fig12_report

        print(fig12_report(seed=args.seed, n_steps=args.steps).text)
    elif cmd == "real-trace":
        from repro.experiments import real_trace_report

        print(real_trace_report(seed=args.seed, n_steps=args.steps).text)
    elif cmd == "prediction":
        from repro.experiments import prediction_accuracy_report

        print(prediction_accuracy_report(seed=args.seed, n_steps=args.steps).text)
    elif cmd == "track":
        _cmd_track(args)
    elif cmd == "compare":
        _cmd_compare(args)
    elif cmd == "example":
        _cmd_example(args)
    elif cmd == "workload":
        _cmd_workload(args)
    elif cmd == "sweep":
        _cmd_sweep(args)
    elif cmd == "lint":
        return _cmd_lint(args)
    elif cmd == "bench":
        return _cmd_bench(args)
    elif cmd == "obs":
        if args.obs_command == "serve":
            return _cmd_obs_serve(args)
        return _cmd_obs_report(args)
    elif cmd == "faults":
        return _cmd_faults(args)
    elif cmd == "serve":
        return _cmd_serve(args)
    elif cmd == "loadgen":
        return _cmd_loadgen(args)
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown command {cmd!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
