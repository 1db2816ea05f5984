"""The machine-layer fault runner: a workload under injected faults.

:func:`run_soak` drives a :class:`~repro.core.reallocator.ProcessorReallocator`
through a :class:`~repro.experiments.workloads.Workload` on a real data
plane (:class:`~repro.core.dataplane.RankStore` holding actual field
arrays) while a :class:`~repro.faults.injector.FaultInjector` fires the
suite's seeded :class:`~repro.faults.plan.FaultPlan` at it.  The whole
run sits under its own scoped :class:`~repro.sanitize.Sanitizer`, so
every conservation checkpoint in the library fires — the Mumbai trace is
built inside that scope, so PDA coverage is checked during its
construction too.  Every step the run:

1. applies scheduled faults (crashes silence ranks; link/straggler faults
   program the network simulator);
2. runs heartbeat detection; newly-dead ranks trigger degraded-mode
   recovery (grid shrink + tree excision + data-plane rebuild from the
   last checkpoint), and nests the recovery drops are filtered out of
   later steps;
3. takes the point through :class:`~repro.core.stepper.AdaptationStepper`:
   a resized nest regrids to its new size on the ranks that hold it, each
   move of the point's plan runs through the self-healing executor
   (seeded backoff), new nests are scattered, and the ledger and
   busiest-link check are fed;
4. checks every :mod:`repro.core.invariants` guarantee, re-verifies every
   live nest's tiling (``audit.tiling``) and compares its field bit for
   bit with the seeded ground truth (``audit.data``) — the data-survives-
   a-resize property of ReSHAPE-style grid shrinks;
5. takes a fresh checkpoint (the next durable point) once the step's
   data audit is clean.

The suites: ``quick`` is the acceptance scenario (kill 2 of 16 ranks
across 10 adaptation points), ``full`` adds link degradation,
stragglers, damaged split files (exercising PDA's degraded mode) and
more steps, ``mumbai`` drives the flagship trace without faults.  A
run's return value is a :class:`SoakReport`; ``report.ok`` is the
verdict, by the rule :func:`verdict_ok` shares with the fleet campaigns.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.pda import parallel_data_analysis
from repro.analysis.records import SplitBatch
from repro.core.dataplane import (
    BackoffPolicy,
    RankStore,
    TransientRedistributionError,
    gather_nest,
)
from repro.core.diffusion import DiffusionStrategy
from repro.core.invariants import InvariantViolation, check_all
from repro.core.reallocator import ProcessorReallocator
from repro.core.stepper import AdaptationStepper
from repro.experiments.workloads import Workload, mumbai_trace_workload
from repro.faults.checkpoint import Checkpoint
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, SplitFileFault
from repro.faults.recovery import HealthView
from repro.grid.block import BlockDecomposition
from repro.grid.procgrid import ProcessorGrid
from repro.mpisim.ledger import CommLedger
from repro.obs import get_recorder
from repro.perfmodel.exectime import ExecTimePredictor
from repro.perfmodel.groundtruth import ExecutionOracle
from repro.perfmodel.profiles import ProfileTable
from repro.sanitize import Sanitizer, SanitizeViolation, use_sanitizer
from repro.topology.machines import MachineSpec, fist_cluster
from repro.util.rng import make_rng

__all__ = [
    "SoakConfig",
    "SoakReport",
    "SUITES",
    "run_soak",
    "format_recoveries",
    "format_soak_report",
    "verdict_ok",
]

#: every suite runs on the 16-core ``fist`` cluster
_NCORES = 16
#: side range of the churn workload's nests
_NEST_SIDES = (24, 40)
_WORKLOADS = ("churn", "mumbai")

#: a ``tamper(store, step)`` callback the tests use to inject corruption
TamperFn = Callable[[RankStore, int], None]


def verdict_ok(
    *,
    sanitizer_armed: bool,
    sanitizer_violations: int,
    invariant_violations: int,
    data_intact: bool,
) -> bool:
    """The verdict rule every fault run shares.

    The sanitizer was armed and stayed clean, no invariant broke, and no
    data was lost — the soak proves the last with its bit-for-bit audit
    against the seeded ground truth, a fleet campaign with flight
    signatures bit-identical to unperturbed twins.
    """
    return (
        sanitizer_armed
        and sanitizer_violations == 0
        and invariant_violations == 0
        and data_intact
    )


@dataclass(frozen=True)
class SoakConfig:
    """One soak scenario, fully determined by its fields."""

    name: str
    seed: int = 42
    n_steps: int = 10
    #: ``"churn"`` (seeded nest births and deaths) or ``"mumbai"`` (the
    #: flagship trace, its PDA passes checked while it is built)
    workload: str = "churn"
    n_crashes: int = 2
    n_link_faults: int = 0
    n_stragglers: int = 0
    n_file_faults: int = 0
    #: steps whose first redistribution round fails and must be retried
    n_flaky_steps: int = 2

    def __post_init__(self) -> None:
        if self.workload not in _WORKLOADS:
            raise ValueError(
                f"unknown soak workload {self.workload!r}; choose from {_WORKLOADS}"
            )

    def machine(self) -> MachineSpec:
        return fist_cluster(_NCORES)

    def fault_plan(self, machine: MachineSpec) -> FaultPlan:
        return FaultPlan.seeded(
            seed=self.seed,
            n_steps=self.n_steps,
            nranks=machine.ncores,
            nlinks=machine.topology.nlinks,
            n_crashes=self.n_crashes,
            n_link_faults=self.n_link_faults,
            n_stragglers=self.n_stragglers,
            n_file_faults=self.n_file_faults,
        )

    def build_workload(self) -> Workload:
        if self.workload == "mumbai":
            return mumbai_trace_workload(seed=self.seed, n_steps=self.n_steps)
        return _churn_workload(self.seed + 1, self.n_steps)


#: The named suites the CLI and CI run.  ``quick`` is the acceptance
#: scenario (2 of 16 ranks die across 10 adaptation points); ``full``
#: turns every machine fault kind on; ``mumbai`` is the conservation
#: smoke on the flagship trace (20 adaptation points, no faults).
SUITES: dict[str, SoakConfig] = {
    "quick": SoakConfig(name="quick"),
    "full": SoakConfig(
        name="full",
        seed=42,
        n_steps=16,
        n_crashes=2,
        n_link_faults=2,
        n_stragglers=2,
        n_file_faults=2,
        n_flaky_steps=3,
    ),
    "mumbai": SoakConfig(
        name="mumbai",
        seed=2005,
        n_steps=20,
        workload="mumbai",
        n_crashes=0,
        n_flaky_steps=0,
    ),
}


@dataclass
class SoakReport:
    """What a soak run survived, and whether it stayed correct."""

    suite: str
    seed: int
    n_steps: int
    machine: str
    workload: str = ""
    n_faults_planned: int = 0
    n_faults_applied: int = 0
    n_crashes: int = 0
    n_recoveries: int = 0
    dropped_nests: int = 0
    restored_nests: int = 0
    n_retries: int = 0
    retried_bytes: float = 0.0
    total_backoff: float = 0.0
    invariant_violations: int = 0
    data_checks: int = 0
    data_failures: int = 0
    pda_runs: int = 0
    pda_partial: int = 0
    recovery_steps: list[int] = field(default_factory=list)
    #: one table row per recovery, for :func:`format_recoveries` (the
    #: JSON verdict carries the counts above)
    recoveries: list[tuple[str, ...]] = field(default_factory=list)
    checks_run: dict[str, int] = field(default_factory=dict)
    violations: list[SanitizeViolation] = field(default_factory=list)

    @property
    def total_checks(self) -> int:
        return sum(self.checks_run.values())

    @property
    def ok(self) -> bool:
        return verdict_ok(
            sanitizer_armed=self.total_checks > 0,
            sanitizer_violations=len(self.violations),
            invariant_violations=self.invariant_violations,
            data_intact=self.data_failures == 0,
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "n_steps": self.n_steps,
            "machine": self.machine,
            "workload": self.workload,
            "n_faults_planned": self.n_faults_planned,
            "n_faults_applied": self.n_faults_applied,
            "n_crashes": self.n_crashes,
            "n_recoveries": self.n_recoveries,
            "dropped_nests": self.dropped_nests,
            "restored_nests": self.restored_nests,
            "n_retries": self.n_retries,
            "retried_bytes": self.retried_bytes,
            "total_backoff": self.total_backoff,
            "invariant_violations": self.invariant_violations,
            "data_checks": self.data_checks,
            "data_failures": self.data_failures,
            "pda_runs": self.pda_runs,
            "pda_partial": self.pda_partial,
            "recovery_steps": list(self.recovery_steps),
            "checks_run": dict(self.checks_run),
            "total_checks": self.total_checks,
            "violations": [
                {"check": v.check, "message": v.message} for v in self.violations
            ],
            "ok": self.ok,
        }


def _churn_workload(seed: int, n_steps: int) -> Workload:
    """Seeded nest churn: three nests to start, then births and deaths.

    Each step a nest may die (never below three) and one may be born
    (never above five); a nest keeps its size for its whole lifetime.
    """
    rng = make_rng(seed)
    new_id = itertools.count()
    nests: dict[int, tuple[int, int]] = {}

    def spawn() -> None:
        lo, hi = _NEST_SIDES
        nx = int(rng.integers(lo, hi + 1))
        ny = int(rng.integers(lo, hi + 1))
        nests[next(new_id)] = (nx, ny)

    for _ in range(3):
        spawn()
    steps: list[dict[int, tuple[int, int]]] = []
    for _ in range(n_steps):
        if len(nests) > 2 and float(rng.random()) < 0.25:
            del nests[sorted(nests)[int(rng.integers(0, len(nests)))]]
        if len(nests) < 5 and float(rng.random()) < 0.35:
            spawn()
        steps.append(dict(nests))
    return Workload(name=f"churn(seed={seed})", steps=steps)


def _ground_truth(seed: int, nest_id: int, nx: int, ny: int) -> np.ndarray:
    """The nest's seeded reference field (a function of id *and* size)."""
    rng = make_rng(make_rng(seed).integers(2**31) + 1009 * nest_id + nx * ny)
    return rng.normal(size=(ny, nx))


def _flaky_steps(config: SoakConfig) -> set[int]:
    """Steps whose first redistribution round fails (seeded, not random)."""
    if config.n_flaky_steps <= 0:
        return set()
    span = max(config.n_steps - 1, 1)
    rng = make_rng(config.seed + 2)
    drawn = rng.choice(span, size=min(config.n_flaky_steps, span), replace=False)
    return {int(s) + 1 for s in drawn}


def _pda_files(sim_grid: ProcessorGrid, seed: int, domain: int = 64) -> SplitBatch:
    """Synthetic split files over a ``domain x domain`` parent grid: each
    tile is drawn on its own, in rank order, into one field pair."""
    rng = make_rng(seed)
    decomp = BlockDecomposition(nx=domain, ny=domain, proc_rect=sim_grid.full_rect)
    qcloud = np.empty((domain, domain))
    olr = np.empty((domain, domain))
    for by in range(sim_grid.py):
        for bx in range(sim_grid.px):
            blk = decomp.block_of(bx, by)
            window = (slice(blk.y0, blk.y1), slice(blk.x0, blk.x1))
            olr[window] = rng.uniform(150.0, 300.0, size=(blk.h, blk.w))
            qcloud[window] = rng.uniform(0.0, 1.0, size=(blk.h, blk.w))
    return SplitBatch(
        qcloud,
        olr,
        tuple(decomp.x_bounds.tolist()),
        tuple(decomp.y_bounds.tolist()),
        np.zeros(sim_grid.nprocs, dtype=bool),
    )


def _audit_data(
    report: SoakReport,
    sanitizer: Sanitizer,
    store: RankStore,
    truth: np.ndarray,
    step: int,
    nest_id: int,
) -> bool:
    """Gather one nest and compare it bit for bit with its ground truth."""
    ny, nx = truth.shape
    report.data_checks += 1
    try:
        intact = np.array_equal(gather_nest(store, nest_id, nx, ny), truth)
    except (KeyError, ValueError) as exc:
        intact = False
        detail = f" ({exc})"
    else:
        detail = ""
    if not intact:
        report.data_failures += 1
        get_recorder().emit("soak.data_mismatch", step=step, nest=nest_id)
        sanitizer.record_violation(
            "audit.data",
            f"step {step}: nest {nest_id} data differs from the seeded "
            f"ground truth{detail}",
        )
    return intact


def run_soak(
    config: SoakConfig,
    workload: Workload | None = None,
    *,
    ledger: CommLedger | None = None,
    tamper: TamperFn | None = None,
) -> SoakReport:
    """Run one soak scenario end to end; never raises on injected faults.

    ``workload`` defaults to the config's own, built inside the
    sanitizer scope.  ``tamper`` is called after each step's data
    movement and before the end-of-step audits; tests use it to corrupt
    the store and prove the audits catch it.  Invariant violations, data
    mismatches and sanitizer findings are *counted*, not raised — the
    report is the verdict.  Programming errors (bad config, impossible
    recovery) still propagate.
    """
    machine = config.machine()
    plan = config.fault_plan(machine)
    sanitizer = Sanitizer()
    flight = get_recorder()
    with use_sanitizer(sanitizer):
        if workload is None:
            workload = config.build_workload()
        predictor = ExecTimePredictor(ProfileTable(ExecutionOracle(), seed=config.seed))
        realloc = ProcessorReallocator(machine, DiffusionStrategy(), predictor)
        injector = FaultInjector(plan, simulator=realloc.simulator)
        health = HealthView(machine.ncores)
        ledger = ledger if ledger is not None else CommLedger(machine.ncores)
        flaky_steps = _flaky_steps(config)
        report = SoakReport(
            suite=config.name,
            seed=config.seed,
            n_steps=workload.n_steps,
            machine=machine.name,
            workload=workload.name,
            n_faults_planned=plan.n_faults,
        )
        fields: dict[int, np.ndarray] = {}

        def ground_truth(nid: int, nx: int, ny: int) -> np.ndarray:
            fields[nid] = _ground_truth(config.seed, nid, nx, ny)
            return fields[nid]

        store = RankStore(realloc.grid.nprocs)
        stepper = AdaptationStepper(
            realloc, store=store, ledger=ledger, retry=BackoffPolicy(), seed=config.seed
        )
        dropped: set[int] = set()
        checkpoint: Checkpoint | None = None

        for step, planned in enumerate(workload.steps):
            # 1. injected faults fire first (the world breaks before we act)
            injector.apply_step(step)

            # 2. heartbeats + detection; recovery on newly-dead ranks
            health.beat_all(step, except_ranks=injector.crashed_ranks)
            newly_dead = health.detect(step)
            if newly_dead:
                report.n_crashes += len(newly_dead)
                recovery = realloc.handle_rank_failure(
                    newly_dead, store=store, checkpoint=checkpoint
                )
                report.n_recoveries += 1
                report.recovery_steps.append(step)
                report.recoveries.append(
                    (
                        str(step),
                        ",".join(map(str, sorted(recovery.dead_ranks))),
                        f"{recovery.old_grid} → {recovery.new_grid}",
                        str(len(recovery.retained_nests)),
                        ",".join(map(str, recovery.dropped_nests)) or "-",
                        ",".join(map(str, recovery.restored_from_checkpoint)) or "-",
                        "ok" if recovery.invariants_ok else "VIOLATED",
                    )
                )
                report.dropped_nests += len(recovery.dropped_nests)
                report.restored_nests += len(recovery.restored_from_checkpoint)
                assert recovery.store is not None
                store = stepper.store = recovery.store
                for nid in recovery.dropped_nests:
                    dropped.add(nid)
                    fields.pop(nid, None)
                if not recovery.invariants_ok:
                    report.invariant_violations += 1
                # survivors must be intact immediately after recovery
                for nid in recovery.retained_nests:
                    _audit_data(report, sanitizer, store, fields[nid], step, nid)

            # 3. one adaptation point + its (self-healing) data movement.
            # The round right after a recovery is made flaky on purpose: it
            # is the one guaranteed to move data (the grid just shrank), so
            # the flight log always shows detection → degraded reallocation
            # → *recovered* redistribution for every crash.
            nests = {nid: size for nid, size in planned.items() if nid not in dropped}
            flaky_now = step in flaky_steps or bool(newly_dead)

            def round_time(attempt: int, _flaky: bool = flaky_now) -> float:
                if _flaky and attempt == 0:
                    raise TransientRedistributionError("injected flaky round")
                return 0.0

            point = stepper.step(nests, ground_truth, round_time)
            result = point.reallocation
            alloc = result.allocation
            for outcome in point.retries:
                report.n_retries += outcome.attempts - 1
                report.retried_bytes += outcome.retried_bytes
                report.total_backoff += outcome.total_delay
            for nid in result.deleted:
                fields.pop(nid, None)
            if tamper is not None:
                tamper(store, step)

            # 4. invariants, tiling of every live nest, then bits
            try:
                check_all(alloc, result.plan, dict(realloc.nest_sizes))
            except InvariantViolation as exc:
                report.invariant_violations += 1
                flight.emit("soak.invariant_violation", step=step, error=str(exc))
            live = {nid: nests[nid] for nid in alloc.nest_ids}
            sanitizer.audit_store(store, live)
            intact = [
                _audit_data(report, sanitizer, store, fields[nid], step, nid)
                for nid in sorted(live)
            ]

            # 5. a fresh durable point, only from verified data
            if all(intact):
                checkpoint = Checkpoint.take(
                    step, alloc, dict(realloc.nest_sizes), store
                )

            # degraded-mode PDA pass when this step damages split files
            if any(isinstance(f, SplitFileFault) for f in plan.at_step(step)):
                sim_grid = ProcessorGrid(*machine.grid)
                files = injector.damage_files(
                    step, _pda_files(sim_grid, config.seed + 3)
                )
                pda = parallel_data_analysis(files, sim_grid, n_analysis=4)
                report.pda_runs += 1
                if pda.partial:
                    report.pda_partial += 1

        sanitizer.check_ledger(ledger)

    report.n_faults_applied = len(injector.applied)
    report.checks_run = dict(sanitizer.checks_run)
    report.violations = list(sanitizer.violations)
    return report


def format_soak_report(report: SoakReport) -> str:
    """Human-readable soak verdict: outcome, sanitizer checks, violations."""
    from repro.util.tables import format_table

    rows = [
        ("suite", report.suite),
        ("seed", str(report.seed)),
        ("machine", report.machine),
        ("workload", report.workload),
        ("steps", str(report.n_steps)),
        ("faults planned / applied", f"{report.n_faults_planned} / {report.n_faults_applied}"),
        ("rank crashes", str(report.n_crashes)),
        ("recoveries (at steps)", f"{report.n_recoveries} ({report.recovery_steps})"),
        ("nests dropped / restored", f"{report.dropped_nests} / {report.restored_nests}"),
        ("redistribution retries", str(report.n_retries)),
        ("retried bytes", f"{report.retried_bytes:.3e}"),
        ("simulated backoff (s)", f"{report.total_backoff:.4f}"),
        ("data checks / failures", f"{report.data_checks} / {report.data_failures}"),
        ("PDA runs / partial", f"{report.pda_runs} / {report.pda_partial}"),
        ("invariant violations", str(report.invariant_violations)),
        (
            "sanitizer checks / violations",
            f"{report.total_checks} / {len(report.violations)}",
        ),
        ("verdict", "OK" if report.ok else "FAILED"),
    ]
    lines = [
        format_table(["metric", "value"], rows, title=f"faults soak — {report.suite}"),
        "",
        format_table(
            ["check", "count"],
            [(check, str(n)) for check, n in sorted(report.checks_run.items())],
            title="sanitizer checks",
        ),
    ]
    if report.violations:
        lines.append(f"VIOLATIONS ({len(report.violations)}):")
        lines.extend(f"  {v}" for v in report.violations[:20])
        if len(report.violations) > 20:
            lines.append(f"  ... and {len(report.violations) - 20} more")
    return "\n".join(lines)


def format_recoveries(report: SoakReport) -> str:
    """One row per recovery: what died, how the grid shrank, which nests
    were dropped or restored from the checkpoint."""
    from repro.util.tables import format_table

    return format_table(
        ["step", "dead ranks", "grid", "retained", "dropped", "from checkpoint", "invariants"],
        report.recoveries,
        title=f"recovery decisions — {report.suite} suite",
    )
