"""Per-table / per-figure report generators (paper §V).

Every generator returns a small result object carrying both the structured
numbers (for assertions in tests/benchmarks) and a ``text`` rendering that
prints the reproduced rows next to the paper's published values.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.nnc import NNCConfig, simple_two_hop_clustering
from repro.analysis.pda import parallel_data_analysis
from repro.analysis.regions import clusters_to_rectangles
from repro.core.allocation import Allocation
from repro.core.metrics import StepMetrics, summarize_improvement
from repro.core.scratch import ScratchStrategy
from repro.experiments.runner import ExperimentContext, RunResult, run_both_strategies, run_workload
from repro.experiments.workloads import mumbai_trace_workload, synthetic_workload
from repro.grid.procgrid import ProcessorGrid
from repro.grid.rect import Rect
from repro.topology.machines import MACHINES
from repro.tree.edit import diffusion_edit
from repro.tree.huffman import build_huffman
from repro.util.tables import format_table
from repro.wrf.model import WrfLikeModel
from repro.wrf.scenario import mumbai_2005_scenario

__all__ = [
    "AllocationReport",
    "ImprovementReport",
    "Fig8Report",
    "Fig9Report",
    "Fig10Fig11Report",
    "Fig12Report",
    "RealTraceReport",
    "PredictionAccuracyReport",
    "table1_report",
    "table2_report",
    "table3_report",
    "table4_report",
    "fig8_report",
    "fig9_report",
    "fig10_fig11_report",
    "fig12_report",
    "real_trace_report",
    "accuracy_report",
    "pearson",
    "prediction_accuracy_report",
]

#: The worked example's weights (Fig. 2) and its churn (Fig. 4 / 8).
PAPER_WEIGHTS = {1: 0.1, 2: 0.1, 3: 0.2, 4: 0.25, 5: 0.35}
PAPER_CHURN_RETAINED = {3: 0.27, 5: 0.42}
PAPER_CHURN_NEW = {6: 0.31}

#: Table I as published.
TABLE1_PUBLISHED = {1: (0, "13x8"), 2: (256, "13x8"), 3: (512, "13x16"), 4: (13, "19x13"), 5: (429, "19x19")}


@dataclass(frozen=True)
class AllocationReport:
    """A reproduced allocation table (Tables I / II style)."""

    rows: list[tuple[int, int, str]]  # (nest, start rank, WxH)
    text: str
    allocation: Allocation


def _allocation_report(allocation: Allocation, title: str) -> AllocationReport:
    rows = allocation.table_rows()
    text = format_table(
        ["Nest ID", "Start Rank", "Processor sub-grid"], rows, title=title
    )
    return AllocationReport(rows=rows, text=text, allocation=allocation)


def table1_report(ncores: int = 1024) -> AllocationReport:
    """Table I: initial allocation of the 5-nest worked example."""
    grid = ProcessorGrid.square_like(ncores)
    tree = build_huffman(PAPER_WEIGHTS)
    alloc = Allocation.from_tree(tree, grid, PAPER_WEIGHTS)
    return _allocation_report(
        alloc, f"Table I — processor allocation on {ncores} cores"
    )


def table2_report(ncores: int = 1024) -> AllocationReport:
    """Table II: partition-from-scratch allocation after the churn."""
    grid = ProcessorGrid.square_like(ncores)
    weights = {**PAPER_CHURN_RETAINED, **PAPER_CHURN_NEW}
    tree = build_huffman(weights)
    alloc = Allocation.from_tree(tree, grid, weights)
    return _allocation_report(
        alloc, f"Table II — partition from scratch on {ncores} cores"
    )


def table3_report() -> str:
    """Table III: the simulated machine configurations."""
    rows = [
        (spec.name, spec.network_kind, f"{spec.grid[0]}x{spec.grid[1]}", spec.ncores)
        for spec in MACHINES.values()
    ]
    return format_table(
        ["Machine", "Network", "Process grid", "Max cores"],
        rows,
        title="Table III — simulation configurations",
    )


# ---------------------------------------------------------------------------
# Table IV — synthetic redistribution improvement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImprovementReport:
    """Average redistribution improvement per machine (Table IV)."""

    improvements: dict[str, float]  # machine key -> percent improvement
    published: dict[str, float]
    text: str
    runs: dict[str, tuple[RunResult, RunResult]] = field(repr=False, default_factory=dict)


TABLE4_PUBLISHED = {"bgl-1024": 15.0, "bgl-256": 25.0, "fist-256": 10.0}


def table4_report(
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    n_steps: int = 70,
    machines: tuple[str, ...] = ("bgl-1024", "bgl-256", "fist-256"),
) -> ImprovementReport:
    """Table IV: average synthetic redistribution-time improvement.

    For each machine, the synthetic workload runs under both strategies for
    each seed; the reported figure is the mean over seeds of the improvement
    in total measured redistribution time.
    """
    improvements: dict[str, float] = {}
    spreads: dict[str, float] = {}
    runs: dict[str, tuple[RunResult, RunResult]] = {}
    specs = [MACHINES[key] for key in machines]  # an unknown key fails before any run
    for key, machine in zip(machines, specs):
        ctx = ExperimentContext(machine)
        per_seed = []
        for seed in seeds:
            wl = synthetic_workload(seed=seed, n_steps=n_steps)
            scratch, diffusion = run_both_strategies(wl, ctx)
            per_seed.append(
                summarize_improvement(scratch.metrics, diffusion.metrics)
            )
            runs[f"{key}:{seed}"] = (scratch, diffusion)
        improvements[key] = float(np.mean(per_seed))
        spreads[key] = float(np.std(per_seed))
    rows = [
        (
            MACHINES[k].name,
            f"{improvements[k]:.1f}% (±{spreads[k]:.1f})",
            f"{TABLE4_PUBLISHED.get(k, float('nan')):.0f}%",
        )
        for k in machines
    ]
    text = format_table(
        ["Simulation configuration", "Improvement (repro, ±std over seeds)", "Improvement (paper)"],
        rows,
        title="Table IV — avg improvement in redistribution times (synthetic)",
    )
    return ImprovementReport(
        improvements=improvements, published=TABLE4_PUBLISHED, text=text, runs=runs
    )


# ---------------------------------------------------------------------------
# Fig 8 — the diffusion worked example
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig8Report:
    text: str
    old_allocation: Allocation
    diffusion_allocation: Allocation
    scratch_allocation: Allocation
    diffusion_overlap: dict[int, float]
    scratch_overlap: dict[int, float]


def fig8_report(ncores: int = 1024) -> Fig8Report:
    """Figs. 2/4/8: the worked example, scratch vs diffusion."""
    grid = ProcessorGrid.square_like(ncores)
    old_tree = build_huffman(PAPER_WEIGHTS)
    old = Allocation.from_tree(old_tree, grid, PAPER_WEIGHTS)
    edited = diffusion_edit(
        old_tree, [1, 2, 4], PAPER_CHURN_RETAINED, PAPER_CHURN_NEW
    )
    weights = {**PAPER_CHURN_RETAINED, **PAPER_CHURN_NEW}
    diff = Allocation.from_tree(edited, grid, weights)
    scratch = Allocation.from_tree(build_huffman(weights), grid, weights)

    def overlaps(new: Allocation) -> dict[int, float]:
        return {
            nid: old.rects[nid].intersect(new.rects[nid]).area / old.rects[nid].area
            for nid in PAPER_CHURN_RETAINED
        }

    d_ov, s_ov = overlaps(diff), overlaps(scratch)
    lines = [
        "Fig. 8 — tree-based hierarchical diffusion worked example",
        "=" * 60,
        "old tree (Fig. 2a):",
        old_tree.pretty(),
        "",
        "edited tree (Fig. 8c) after deleting {1,2,4}, retaining {3,5}, adding {6}:",
        edited.pretty(),
        "",
        _allocation_report(diff, "diffusion allocation (Fig. 8d)").text,
        "",
        _allocation_report(scratch, "scratch allocation (Fig. 4b)").text,
        "",
        "old/new rectangle overlap of retained nests (fraction of old rect):",
    ]
    for nid in sorted(PAPER_CHURN_RETAINED):
        lines.append(
            f"  nest {nid}: diffusion {d_ov[nid]:.2f} vs scratch {s_ov[nid]:.2f}"
        )
    return Fig8Report(
        text="\n".join(lines),
        old_allocation=old,
        diffusion_allocation=diff,
        scratch_allocation=scratch,
        diffusion_overlap=d_ov,
        scratch_overlap=s_ov,
    )


# ---------------------------------------------------------------------------
# Fig 9 — clustering comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig9Report:
    text: str
    simple_clusters: int
    simple_overlapping_pairs: int
    nnc_clusters: int
    nnc_overlapping_pairs: int
    simple_total_pairs: int = 0  # summed over the whole episode
    nnc_total_pairs: int = 0


def _overlapping_pairs(rects: list[Rect]) -> int:
    n = 0
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            if rects[i].overlaps(rects[j]):
                n += 1
    return n


def fig9_report(
    seed: int = 2005, step: int = 26, n_analysis: int = 64, scan_steps: int | None = None
) -> Fig9Report:
    """Fig. 9: simple 2-hop clustering overlaps in space; the paper's NNC
    (1-hop before 2-hop + 30 % mean guard) keeps clusters disjoint.

    Reports a snapshot at ``step`` (the paper's figure is one snapshot) plus
    the overlapping-pair totals over the whole episode up to
    ``scan_steps`` (default: up to ``step``), where the same ordering must
    hold in aggregate.
    """
    scan_steps = scan_steps if scan_steps is not None else step + 1
    n_run = max(step + 1, scan_steps)
    scenario = mumbai_2005_scenario(seed=seed, n_steps=n_run)
    model = WrfLikeModel(scenario.config, scenario.birth_fn, scenario.initial_systems)
    simple_total = nnc_total = 0
    snapshot: tuple[int, int, int, int] | None = None
    for t in range(n_run):
        model.step()
        files = model.write_split_files()
        pda = parallel_data_analysis(files, scenario.config.sim_grid, n_analysis)
        simple = simple_two_hop_clustering(pda.summaries, NNCConfig())
        sp = _overlapping_pairs(clusters_to_rectangles(pda.summaries, simple))
        fp = _overlapping_pairs(pda.rectangles)
        if t < scan_steps:
            simple_total += sp
            nnc_total += fp
        if t == step:
            snapshot = (len(simple), sp, len(pda.clusters), fp)
    assert snapshot is not None
    s_clusters, s_pairs, f_clusters, f_pairs = snapshot
    rows = [
        ("2-hop only, no mean guard (Fig 9a)", s_clusters, s_pairs, simple_total),
        ("1+2-hop, 30% mean guard (Fig 9b)", f_clusters, f_pairs, nnc_total),
    ]
    text = format_table(
        ["Clustering", "Clusters", "Overlapping pairs", f"Σ pairs over {scan_steps} steps"],
        rows,
        title=f"Fig. 9 — nearest-neighbour clustering variants (snapshot t={step})",
    )
    return Fig9Report(
        text=text,
        simple_clusters=s_clusters,
        simple_overlapping_pairs=s_pairs,
        nnc_clusters=f_clusters,
        nnc_overlapping_pairs=f_pairs,
        simple_total_pairs=simple_total,
        nnc_total_pairs=nnc_total,
    )


# ---------------------------------------------------------------------------
# Figs 10 & 11 — per-case hop-bytes and overlap, 70 synthetic cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig10Fig11Report:
    text: str
    cases: list[int]
    scratch_hop_bytes: list[float]
    diffusion_hop_bytes: list[float]
    scratch_overlap: list[float]  # percent
    diffusion_overlap: list[float]  # percent
    scratch_hop_bytes_mean: float
    diffusion_hop_bytes_mean: float


def fig10_fig11_report(
    seed: int = 0, n_cases: int = 70, machine_key: str = "bgl-1024"
) -> Fig10Fig11Report:
    """Figs. 10–11: per-case average hop-bytes and sender/receiver overlap.

    Paper means on 1024 BG/L cores: hop-bytes 5.25 (scratch) vs 2.44
    (diffusion); overlap markedly higher for diffusion.
    """
    machine = MACHINES[machine_key]
    ctx = ExperimentContext(machine)
    wl = synthetic_workload(seed=seed, n_steps=n_cases)
    scratch, diffusion = run_both_strategies(wl, ctx)
    # A "case" is a reconfiguration with actual data movement.
    cases, s_hb, d_hb, s_ov, d_ov = [], [], [], [], []
    for i, (ms, md) in enumerate(zip(scratch.metrics, diffusion.metrics)):
        if ms.n_retained == 0 and md.n_retained == 0:
            continue
        cases.append(i)
        s_hb.append(ms.hop_bytes_avg)
        d_hb.append(md.hop_bytes_avg)
        s_ov.append(100.0 * ms.overlap_fraction)
        d_ov.append(100.0 * md.overlap_fraction)
    s_mean, d_mean = float(np.mean(s_hb)), float(np.mean(d_hb))
    rows = [
        ("scratch", f"{s_mean:.2f}", f"{np.mean(s_ov):.1f}%"),
        ("diffusion", f"{d_mean:.2f}", f"{np.mean(d_ov):.1f}%"),
        ("paper scratch", "5.25", "(low)"),
        ("paper diffusion", "2.44", "(high)"),
    ]
    text = format_table(
        ["Strategy", "avg hop-bytes (Fig 10)", "avg overlap (Fig 11)"],
        rows,
        title=f"Figs. 10–11 — {len(cases)} synthetic cases on {machine.name}",
    )
    return Fig10Fig11Report(
        text=text,
        cases=cases,
        scratch_hop_bytes=s_hb,
        diffusion_hop_bytes=d_hb,
        scratch_overlap=s_ov,
        diffusion_overlap=d_ov,
        scratch_hop_bytes_mean=s_mean,
        diffusion_hop_bytes_mean=d_mean,
    )


# ---------------------------------------------------------------------------
# Fig 12 — dynamic strategy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig12Report:
    text: str
    totals: dict[str, tuple[float, float]]  # strategy -> (exec, redist) actual
    chose_scratch: int
    chose_diffusion: int
    correct_choices: int
    n_decisions: int


def fig12_report(
    seed: int = 3, n_steps: int = 12, machine_key: str = "bgl-1024"
) -> Fig12Report:
    """Fig. 12 / §V-F: dynamic selection over 12 reconfigurations.

    Paper: tree-based chosen 10/12 times, correct in 10/12; dynamic total
    ≈ tree-based redistribution + scratch execution.
    """
    machine = MACHINES[machine_key]
    ctx = ExperimentContext(machine)
    wl = synthetic_workload(seed=seed, n_steps=n_steps)
    scratch, diffusion = run_both_strategies(wl, ctx)
    dynamic_strategy = ctx.make_dynamic_strategy()
    dynamic = run_workload(wl, dynamic_strategy, ctx)

    totals = {
        r.strategy: (r.total("exec_actual"), r.total("measured_redist"))
        for r in (scratch, diffusion, dynamic)
    }
    chose_scratch = sum(1 for h in dynamic_strategy.history if h.chosen == "scratch")
    chose_diffusion = len(dynamic_strategy.history) - chose_scratch
    # A decision is correct when the chosen method's ACTUAL per-step total
    # (execution + measured redistribution) is the smaller one.
    correct = 0
    decisions = 0
    for ms, md, h in zip(scratch.metrics, diffusion.metrics, dynamic_strategy.history):
        s_total = ms.total_actual
        d_total = md.total_actual
        if s_total == d_total:
            correct += 1
        elif (s_total < d_total) == (h.chosen == "scratch"):
            correct += 1
        decisions += 1

    rows = [
        (
            name,
            f"{exec_t:.1f}",
            f"{redist_t:.3f}",
            f"{exec_t + redist_t:.1f}",
        )
        for name, (exec_t, redist_t) in totals.items()
    ]
    text = "\n".join(
        [
            format_table(
                ["Strategy", "Execution (s)", "Redistribution (s)", "Total (s)"],
                rows,
                title=f"Fig. 12 — totals over {n_steps} reconfigurations on {machine.name}",
            ),
            "",
            f"dynamic chose scratch {chose_scratch}x, diffusion {chose_diffusion}x "
            f"(paper: 2x / 10x); correct {correct}/{decisions} (paper: 10/12)",
        ]
    )
    return Fig12Report(
        text=text,
        totals=totals,
        chose_scratch=chose_scratch,
        chose_diffusion=chose_diffusion,
        correct_choices=correct,
        n_decisions=decisions,
    )


# ---------------------------------------------------------------------------
# Real-trace improvement (§V-D) and prediction accuracy (§V-F)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealTraceReport:
    text: str
    improvements: dict[str, float]  # machine -> redistribution improvement %
    exec_increase: dict[str, float]  # machine -> execution-time increase %


def real_trace_report(
    machines: tuple[str, ...] = ("bgl-512", "bgl-1024"),
    seed: int = 2005,
    n_steps: int = 100,
) -> RealTraceReport:
    """§V-D real test cases: 14% (512 cores) / 12% (1024 cores) improvement,
    with ~4% execution-time increase for the diffusion method."""
    from repro.experiments.stats import bootstrap_improvement_ci

    published = {"bgl-512": 14.0, "bgl-1024": 12.0}
    wl = mumbai_trace_workload(seed=seed, n_steps=n_steps)
    improvements: dict[str, float] = {}
    exec_increase: dict[str, float] = {}
    rows = []
    for key in machines:
        ctx = ExperimentContext(MACHINES[key])
        scratch, diffusion = run_both_strategies(wl, ctx)
        imp = summarize_improvement(scratch.metrics, diffusion.metrics)
        ci = bootstrap_improvement_ci(scratch.metrics, diffusion.metrics)
        # positive = diffusion execution is SLOWER (the paper's ~4% increase)
        exec_inc = -summarize_improvement(
            scratch.metrics, diffusion.metrics, attribute="exec_actual"
        )
        improvements[key] = imp
        exec_increase[key] = exec_inc
        rows.append(
            (
                MACHINES[key].name,
                f"{imp:.1f}% [{ci.low:.1f}, {ci.high:.1f}]",
                f"{published.get(key, float('nan')):.0f}%",
                f"{exec_inc:+.1f}%",
            )
        )
    text = format_table(
        ["Machine", "Redist improvement (repro, 95% CI)", "(paper)", "Exec-time change"],
        rows,
        title=f"Real-trace (Mumbai 2005-like) results over {wl.n_steps} reconfigurations",
    )
    return RealTraceReport(text=text, improvements=improvements, exec_increase=exec_increase)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (NaN for degenerate inputs).

    Pure python on purpose: a deterministic sum, so the §V-F table
    aggregates identically everywhere the baselines are compared.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"series lengths differ: {n} vs {len(ys)}")
    if n < 2:
        return float("nan")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0.0 or var_y <= 0.0:
        return float("nan")
    return cov / math.sqrt(var_x * var_y)


def _mean_abs_rel_error(pairs: Iterable[tuple[float, float]]) -> float:
    """Mean ``|predicted - observed| / observed`` over ``(predicted,
    observed)`` pairs, skipping points where nothing was observed (NaN
    when none is left)."""
    errors = [abs(pred - obs) / obs for pred, obs in pairs if obs != 0]
    return sum(errors) / len(errors) if errors else float("nan")


def accuracy_report(
    runs: Sequence[RunResult], title: str = "per-point metrics"
) -> str:
    """§V-F accuracy table over runs' own per-point metrics.

    One row per run strategy, in the order strategies first appear (runs
    of one strategy pool their points): the points, the Pearson r of
    predicted vs. observed execution time, the mean absolute relative
    error of the execution and §IV-C1 redistribution predictions, and
    how often each allocation was applied.
    """
    pooled: dict[str, list[StepMetrics]] = {}
    for run in runs:
        pooled.setdefault(run.strategy, []).extend(run.metrics)
    rows = []
    for strategy, metrics in pooled.items():
        predicted = [m.exec_predicted for m in metrics]
        observed = [m.exec_actual for m in metrics]
        redist_mare = _mean_abs_rel_error(
            (m.predicted_redist, m.measured_redist) for m in metrics
        )
        choices = Counter(m.strategy_choice or strategy for m in metrics)
        rows.append(
            (
                strategy,
                str(len(metrics)),
                f"{pearson(predicted, observed):.3f}",
                f"{100 * _mean_abs_rel_error(zip(predicted, observed)):.1f}%",
                f"{100 * redist_mare:.1f}%",
                ", ".join(f"{k}:{v}" for k, v in sorted(choices.items())),
            )
        )
    return format_table(
        [
            "run strategy",
            "points",
            "exec Pearson r",
            "exec MARE",
            "redist MARE",
            "applied allocations",
        ],
        rows,
        title=f"{title} — prediction accuracy (paper §V-F: r ≈ 0.9)",
    )


@dataclass(frozen=True)
class PredictionAccuracyReport:
    text: str
    pearson_r: float
    run: RunResult = field(repr=False)


def prediction_accuracy_report(
    seed: int = 5, n_steps: int = 40, machine_key: str = "bgl-1024"
) -> PredictionAccuracyReport:
    """§V-F: Pearson correlation between predicted and actual execution
    times (paper: ≈ 0.9), from the run's own per-point metrics — the
    records :func:`accuracy_report` tabulates."""
    ctx = ExperimentContext(MACHINES[machine_key])
    wl = synthetic_workload(seed=seed, n_steps=n_steps)
    run = run_workload(wl, ScratchStrategy(), ctx)
    r = pearson(run.series("exec_predicted"), run.series("exec_actual"))
    text = "\n".join(
        [
            f"Execution-time prediction accuracy over {len(run.metrics)} adaptation "
            f"points on {MACHINES[machine_key].name}:",
            f"  Pearson r = {r:.3f}   (paper: ~0.9)",
            "",
            accuracy_report([run]),
        ]
    )
    return PredictionAccuracyReport(text=text, pearson_r=r, run=run)
