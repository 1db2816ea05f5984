"""Run a workload under a strategy and collect per-step metrics.

The runner owns the pieces a real deployment would: the machine model, the
execution-time predictor (shared across strategies so comparisons are
fair), the ground-truth oracle that supplies "actual" execution times, and
the network simulator supplying "measured" redistribution times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import Allocation
from repro.core.dynamic import DynamicStrategy, predicted_costs
from repro.core.metrics import StepMetrics
from repro.core.reallocator import ProcessorReallocator, StepResult
from repro.core.stepper import AdaptationStepper
from repro.core.strategy import ReallocationStrategy
from repro.core.scratch import ScratchStrategy
from repro.core.diffusion import DiffusionStrategy
from repro.experiments.workloads import Workload
from repro.mpisim.costmodel import CostModel
from repro.mpisim.ledger import CommLedger
from repro.obs import ADAPTATION_SPAN, AdaptationAudit, AuditTrail, get_recorder
from repro.perfmodel.exectime import ExecTimePredictor
from repro.sanitize.hooks import get_sanitizer
from repro.perfmodel.groundtruth import ExecutionOracle
from repro.perfmodel.profiles import ProfileTable
from repro.topology.machines import MachineSpec
from repro.util.rng import make_rng

__all__ = [
    "RunResult",
    "ExperimentContext",
    "WorkloadStepper",
    "run_workload",
    "run_both_strategies",
]


@dataclass
class ExperimentContext:
    """Shared fixtures of one experiment: machine, oracle, predictor, cost.

    Telemetry goes to the ambient recorder (:func:`~repro.obs.get_recorder`);
    scope one with :func:`~repro.obs.use_recorder` around the run.
    ``audit`` opts the run into the adaptation audit trail: every
    adaptation point appends one :class:`~repro.obs.audit.AdaptationAudit`
    with both candidates' predicted costs and the observed outcome (for
    non-dynamic strategies a candidate that differs from the applied
    allocation is priced on the side — extra prediction work, so it is off
    by default; one equal to it takes the step's own predictions).
    ``ledger`` opts into per-rank traffic accounting of every executed
    redistribution.
    """

    machine: MachineSpec
    oracle: ExecutionOracle = field(default_factory=ExecutionOracle)
    cost: CostModel | None = None
    predictor: ExecTimePredictor | None = None
    profile_seed: int = 1234
    audit: AuditTrail | None = None
    ledger: CommLedger | None = None

    def __post_init__(self) -> None:
        if self.cost is None:
            self.cost = CostModel.for_machine(self.machine)
        if self.predictor is None:
            self.predictor = ExecTimePredictor(
                ProfileTable(self.oracle, seed=self.profile_seed)
            )

    def make_dynamic_strategy(self) -> DynamicStrategy:
        assert self.predictor is not None and self.cost is not None
        return DynamicStrategy(self.machine, self.cost, self.predictor)


@dataclass(frozen=True)
class RunResult:
    """All per-step metrics of one (workload, strategy) run."""

    workload: str
    strategy: str
    metrics: list[StepMetrics]

    def total(self, attribute: str) -> float:
        return float(np.sum([getattr(m, attribute) for m in self.metrics]))

    def mean(self, attribute: str, nonzero_only: bool = False) -> float:
        vals = [getattr(m, attribute) for m in self.metrics]
        if nonzero_only:
            vals = [v for v in vals if v != 0]
        return float(np.mean(vals)) if vals else 0.0

    def series(self, attribute: str) -> list[float]:
        return [float(getattr(m, attribute)) for m in self.metrics]


def _actual_exec_time(
    allocation: Allocation,
    nests: dict[int, tuple[int, int]],
    oracle: ExecutionOracle,
    rng: np.random.Generator,
) -> float:
    """Ground-truth slowest-nest execution time of an allocation."""
    if allocation.is_empty:
        return 0.0
    return max(
        oracle.observe(nx, ny, allocation.rects[nid].w, allocation.rects[nid].h, rng)
        for nid, (nx, ny) in nests.items()
    )


class WorkloadStepper:
    """A resumable, per-adaptation-point driver of one (workload, strategy) run.

    :func:`run_workload` is a thin loop over this class; the multi-tenant
    scheduler (:mod:`repro.serve`) interleaves many steppers in one
    process, advancing each a single adaptation point at a time.  Each
    :meth:`advance` records into the ambient recorder, so a caller that
    scopes its own (a serve session scopes its ring around every step)
    keeps concurrent steppers out of each other's telemetry.

    The stepper owns everything mutable about the run — the reallocator,
    the execution-noise RNG, the collected metrics — so a (workload,
    strategy, seed) triple replays identically however its ``advance``
    calls interleave with other steppers'.
    """

    def __init__(
        self,
        workload: Workload,
        strategy: ReallocationStrategy,
        context: ExperimentContext,
        exec_noise_seed: int = 99,
    ) -> None:
        assert context.predictor is not None and context.cost is not None
        self.workload = workload
        self.strategy = strategy
        self.context = context
        self.realloc = ProcessorReallocator(
            context.machine, strategy, context.predictor, context.cost
        )
        self._point = AdaptationStepper(self.realloc, ledger=context.ledger)
        self.metrics: list[StepMetrics] = []
        self._rng = make_rng(exec_noise_seed)
        self.next_step = 0

    @property
    def done(self) -> bool:
        """True once every adaptation point of the workload has run."""
        return self.next_step >= self.workload.n_steps

    def advance(self) -> StepMetrics:
        """Run the next point (one :class:`AdaptationStepper` call, which
        also feeds ``context.ledger``) and return its metrics."""
        if self.done:
            raise ValueError(
                f"workload {self.workload.name!r} is exhausted after "
                f"{self.workload.n_steps} steps"
            )
        context, strategy = self.context, self.strategy
        assert context.predictor is not None
        i = self.next_step
        nests = self.workload.steps[i]
        recorder = get_recorder()
        old_alloc = self.realloc.allocation
        with recorder.bind(step=i, strategy=strategy.name):
            with recorder.span(ADAPTATION_SPAN, n_nests=len(nests)):
                result = self._point.step(nests).reallocation
                alloc = result.allocation
                plan = result.plan
                exec_pred = (
                    max(
                        context.predictor.predict(nx, ny, alloc.rects[nid].area)
                        for nid, (nx, ny) in nests.items()
                    )
                    if nests
                    else 0.0
                )
                exec_actual = _actual_exec_time(
                    alloc, nests, context.oracle, self._rng
                )
        choice = ""
        if isinstance(strategy, DynamicStrategy) and strategy.history:
            choice = strategy.history[-1].chosen
        if context.audit is not None:
            self._audit(old_alloc, result, nests, exec_pred, exec_actual, choice)
        metric = StepMetrics(
            step=i,
            n_nests=len(nests),
            n_retained=len(result.retained),
            predicted_redist=plan.predicted_time if plan else 0.0,
            measured_redist=plan.measured_time if plan else 0.0,
            hop_bytes_avg=plan.hop_bytes_avg if plan else 0.0,
            hop_bytes_total=plan.hop_bytes_total if plan else 0.0,
            overlap_fraction=plan.overlap_fraction if plan else 1.0,
            exec_predicted=exec_pred,
            exec_actual=exec_actual,
            strategy_choice=choice,
        )
        self.metrics.append(metric)
        self.next_step += 1
        return metric

    def _audit(
        self,
        old_alloc: Allocation | None,
        result: StepResult,
        nests: dict[int, tuple[int, int]],
        exec_pred: float,
        exec_actual: float,
        chosen: str,
    ) -> None:
        """Append one AdaptationAudit and gauge the per-step prediction errors.

        A dynamic run records its own decision inputs.  Other runs price the
        scratch and diffusion candidates on the side, so the audit still
        answers "what *would* the other have cost"; a candidate whose
        rectangles equal the applied allocation's takes the step's own
        predictions (``exec_pred`` and the plan's ``predicted_time``).
        """
        context, strategy = self.context, self.strategy
        assert context.audit is not None
        plan = result.plan
        applied_redist = plan.predicted_time if plan else 0.0
        if isinstance(strategy, DynamicStrategy) and strategy.history:
            cand = strategy.history[-1]
            scratch = (cand.scratch_exec, cand.scratch_redist)
            diffusion = (cand.diffusion_exec, cand.diffusion_redist)
        else:
            scratch, diffusion = self._candidate_predictions(
                old_alloc, result, nests, (exec_pred, applied_redist)
            )
        record = context.audit.record(
            AdaptationAudit(
                step=self.next_step,
                strategy=strategy.name,
                chosen=chosen or strategy.name,
                n_nests=len(nests),
                predicted_scratch_exec=scratch[0],
                predicted_scratch_redist=scratch[1],
                predicted_diffusion_exec=diffusion[0],
                predicted_diffusion_redist=diffusion[1],
                predicted_exec=exec_pred,
                predicted_redist=applied_redist,
                observed_exec=exec_actual,
                observed_redist=plan.measured_time if plan else 0.0,
            )
        )
        recorder = get_recorder()
        recorder.gauge("audit.exec_error", record.exec_error)
        recorder.gauge("audit.redist_error", record.redist_error)

    def _candidate_predictions(
        self,
        old_alloc: Allocation | None,
        result: StepResult,
        nests: dict[int, tuple[int, int]],
        applied: tuple[float, float],
    ) -> list[tuple[float, float]]:
        """Scratch's and diffusion's predicted ``(exec, redist)`` here.

        A candidate equal to the applied allocation takes ``applied``, the
        step's own predictions.  That is exact: a nest's moves depend only
        on the old and new rectangles, its size and the bytes per point.
        """
        context = self.context
        assert context.predictor is not None and context.cost is not None
        grid, weights = self.realloc.grid, result.weights
        candidates = (
            ScratchStrategy().reallocate(old_alloc, weights, grid),
            DiffusionStrategy().reallocate(old_alloc, weights, grid),
        )
        return [
            applied
            if candidate.rects == result.allocation.rects
            else predicted_costs(
                old_alloc,
                candidate,
                dict(nests),
                context.machine,
                context.cost,
                context.predictor,
            )
            for candidate in candidates
        ]

    def result(self) -> RunResult:
        """The run so far as a :class:`RunResult` (ledger sanity-checked)."""
        sanitizer = get_sanitizer()
        if sanitizer.enabled and self.context.ledger is not None:
            sanitizer.check_ledger(self.context.ledger)
        return RunResult(
            workload=self.workload.name,
            strategy=self.strategy.name,
            metrics=list(self.metrics),
        )


def run_workload(
    workload: Workload,
    strategy: ReallocationStrategy,
    context: ExperimentContext,
    exec_noise_seed: int = 99,
) -> RunResult:
    """Drive ``strategy`` through every step of ``workload``."""
    stepper = WorkloadStepper(
        workload, strategy, context, exec_noise_seed=exec_noise_seed
    )
    while not stepper.done:
        stepper.advance()
    return stepper.result()


def run_both_strategies(
    workload: Workload, context: ExperimentContext
) -> tuple[RunResult, RunResult]:
    """Run scratch and diffusion on the same workload and fixtures."""
    scratch = run_workload(workload, ScratchStrategy(), context)
    diffusion = run_workload(workload, DiffusionStrategy(), context)
    return scratch, diffusion
