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
from repro.core.dynamic import DynamicStrategy, predicted_exec_time
from repro.core.metrics import StepMetrics
from repro.core.reallocator import ProcessorReallocator
from repro.core.stepper import AdaptationStepper
from repro.core.strategy import ReallocationStrategy
from repro.core.scratch import ScratchStrategy
from repro.core.diffusion import DiffusionStrategy
from repro.experiments.workloads import Workload
from repro.mpisim.costmodel import CostModel
from repro.mpisim.ledger import CommLedger
from repro.obs import ADAPTATION_SPAN, DECISION_COUNTER, get_recorder
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
    ``ledger`` opts into per-rank traffic accounting of every executed
    redistribution.
    """

    machine: MachineSpec
    oracle: ExecutionOracle = field(default_factory=ExecutionOracle)
    cost: CostModel | None = None
    predictor: ExecTimePredictor | None = None
    profile_seed: int = 1234
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
    the execution-noise RNG, the running redistribution total — so a
    (workload, strategy, seed) triple replays identically however its
    ``advance`` calls interleave with other steppers'.  It keeps no
    per-point history: each point's :class:`StepMetrics` goes to the
    caller.
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
        self._rng = make_rng(exec_noise_seed)
        self.next_step = 0
        #: measured redistribution time summed over the points run so far
        self.measured_redist_total = 0.0

    @property
    def done(self) -> bool:
        """True once every adaptation point of the workload has run."""
        return self.next_step >= self.workload.n_steps

    def advance(self) -> StepMetrics:
        """Run the next point (one :class:`AdaptationStepper` call, which
        also feeds ``context.ledger``) and return its metrics.

        The point's predicted and observed execution times ride on the
        ``adaptation_point.end`` event, and the allocation it applied
        bumps the ``decision.<chosen>`` counter.
        """
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
        with recorder.bind(step=i, strategy=strategy.name):
            with recorder.span(ADAPTATION_SPAN, n_nests=len(nests)) as span:
                result = self._point.step(nests).reallocation
                alloc = result.allocation
                plan = result.plan
                exec_pred = predicted_exec_time(context.predictor, alloc, nests)
                exec_actual = _actual_exec_time(
                    alloc, nests, context.oracle, self._rng
                )
                span.tag(exec_predicted=exec_pred, exec_observed=exec_actual)
        choice = ""
        if isinstance(strategy, DynamicStrategy) and strategy.history:
            choice = strategy.history[-1].chosen
        recorder.count(DECISION_COUNTER + (choice or strategy.name))
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
        self.measured_redist_total += metric.measured_redist
        self.next_step += 1
        return metric


def run_workload(
    workload: Workload,
    strategy: ReallocationStrategy,
    context: ExperimentContext,
    exec_noise_seed: int = 99,
) -> RunResult:
    """Drive ``strategy`` through every step of ``workload`` (the ledger
    sanity-checked at the end when a sanitizer is armed)."""
    stepper = WorkloadStepper(
        workload, strategy, context, exec_noise_seed=exec_noise_seed
    )
    metrics = [stepper.advance() for _ in range(workload.n_steps)]
    sanitizer = get_sanitizer()
    if sanitizer.enabled and context.ledger is not None:
        sanitizer.check_ledger(context.ledger)
    return RunResult(workload=workload.name, strategy=strategy.name, metrics=metrics)


def run_both_strategies(
    workload: Workload, context: ExperimentContext
) -> tuple[RunResult, RunResult]:
    """Run scratch and diffusion on the same workload and fixtures."""
    scratch = run_workload(workload, ScratchStrategy(), context)
    diffusion = run_workload(workload, DiffusionStrategy(), context)
    return scratch, diffusion
