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
from repro.core.dynamic import DynamicChoice, DynamicStrategy, predict_candidate_costs
from repro.core.metrics import StepMetrics
from repro.core.reallocator import ProcessorReallocator, StepResult
from repro.core.strategy import ReallocationStrategy
from repro.core.scratch import ScratchStrategy
from repro.core.diffusion import DiffusionStrategy
from repro.experiments.workloads import Workload
from repro.grid.procgrid import ProcessorGrid
from repro.mpisim.alltoallv import MessageSet
from repro.mpisim.costmodel import CostModel
from repro.mpisim.ledger import CommLedger
from repro.obs import (
    AdaptationAudit,
    AuditTrail,
    FlightTap,
    Recorder,
    Timeline,
    get_flight_recorder,
    get_recorder,
    use_recorder,
)
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

    ``recorder`` opts the run into telemetry: when set, every workload
    driven through this context records its spans there (the ambient
    recorder is used otherwise, which defaults to the no-op one).
    ``audit`` opts the run into the adaptation audit trail: every
    adaptation point appends one :class:`~repro.obs.audit.AdaptationAudit`
    with both candidates' predicted costs and the observed outcome (for
    non-dynamic strategies the candidates are computed on the side — extra
    prediction work, so it is off by default).  ``ledger`` opts into
    per-rank traffic accounting of every executed redistribution.
    ``tap`` opts into live flight-event streaming: when set, every stepper
    driven through this context attaches it to the ambient flight ring,
    so subscribers (:meth:`~repro.obs.stream.FlightTap.subscribe`) watch
    the run's events as they happen (no subscribers → no overhead).
    """

    machine: MachineSpec
    oracle: ExecutionOracle = field(default_factory=ExecutionOracle)
    cost: CostModel | None = None
    predictor: ExecTimePredictor | None = None
    profile_seed: int = 1234
    recorder: Recorder | None = None
    audit: AuditTrail | None = None
    ledger: CommLedger | None = None
    tap: FlightTap | None = None

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
    allocations: list[Allocation]

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
    :meth:`advance` call scopes the context's recorder for exactly its
    own duration, so concurrent steppers driven from worker threads
    (``asyncio.to_thread`` copies the ambient context) never record into
    each other's telemetry.

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
        flow_level: bool = False,
    ) -> None:
        assert context.predictor is not None and context.cost is not None
        self.workload = workload
        self.strategy = strategy
        self.context = context
        self.realloc = ProcessorReallocator(
            context.machine,
            strategy,
            context.predictor,
            context.cost,
            flow_level=flow_level,
        )
        self.metrics: list[StepMetrics] = []
        self.allocations: list[Allocation] = []
        self._rng = make_rng(exec_noise_seed)
        self._recorder = (
            context.recorder if context.recorder is not None else get_recorder()
        )
        self._timeline = Timeline(self._recorder)
        self.next_step = 0

    @property
    def done(self) -> bool:
        """True once every adaptation point of the workload has run."""
        return self.next_step >= self.workload.n_steps

    def advance(self) -> StepMetrics:
        """Run the next adaptation point and return its metrics."""
        if self.done:
            raise ValueError(
                f"workload {self.workload.name!r} is exhausted after "
                f"{self.workload.n_steps} steps"
            )
        context, strategy = self.context, self.strategy
        assert context.predictor is not None
        i = self.next_step
        nests = self.workload.steps[i]
        with use_recorder(self._recorder):
            if context.tap is not None:
                # idempotent: re-attaching on every advance keeps the tap
                # following the ring even when callers re-scope it
                get_flight_recorder().attach_tap(context.tap)
            old_alloc = self.realloc.allocation
            with self._timeline.adaptation_point(
                step=i, strategy=strategy.name, n_nests=len(nests)
            ):
                result = self.realloc.step(nests)
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
                _record_audit(
                    context,
                    strategy,
                    old_alloc,
                    result,
                    step=i,
                    nests=nests,
                    exec_pred=exec_pred,
                    exec_actual=exec_actual,
                    chosen=choice,
                    grid=self.realloc.grid,
                )
            if context.ledger is not None and result.plan is not None:
                _feed_ledger(context.ledger, result, self.realloc, step=i)
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
        self.allocations.append(alloc)
        self.next_step += 1
        return metric

    def result(self) -> RunResult:
        """The run so far as a :class:`RunResult` (ledger sanity-checked)."""
        sanitizer = get_sanitizer()
        if sanitizer.enabled and self.context.ledger is not None:
            sanitizer.check_ledger(self.context.ledger)
        return RunResult(
            workload=self.workload.name,
            strategy=self.strategy.name,
            metrics=list(self.metrics),
            allocations=list(self.allocations),
        )


def run_workload(
    workload: Workload,
    strategy: ReallocationStrategy,
    context: ExperimentContext,
    exec_noise_seed: int = 99,
    flow_level: bool = False,
) -> RunResult:
    """Drive ``strategy`` through every step of ``workload``."""
    stepper = WorkloadStepper(
        workload,
        strategy,
        context,
        exec_noise_seed=exec_noise_seed,
        flow_level=flow_level,
    )
    while not stepper.done:
        stepper.advance()
    return stepper.result()


def _candidate_choice(
    context: ExperimentContext,
    strategy: ReallocationStrategy,
    old_alloc: Allocation | None,
    result: StepResult,
    nests: dict[int, tuple[int, int]],
    grid: ProcessorGrid,
) -> DynamicChoice:
    """Both candidates' predicted costs at this adaptation point.

    The dynamic strategy already computed them (its last history entry);
    for scratch/diffusion runs they are recomputed on the side so the
    audit can still answer "what *would* the other method have cost".
    """
    if isinstance(strategy, DynamicStrategy) and strategy.history:
        return strategy.history[-1]
    assert context.predictor is not None and context.cost is not None
    return predict_candidate_costs(
        old_alloc,
        result.weights,
        grid,
        dict(nests),
        context.machine,
        context.cost,
        context.predictor,
    ).choice


def _record_audit(
    context: ExperimentContext,
    strategy: ReallocationStrategy,
    old_alloc: Allocation | None,
    result: StepResult,
    step: int,
    nests: dict[int, tuple[int, int]],
    exec_pred: float,
    exec_actual: float,
    chosen: str,
    grid: ProcessorGrid,
) -> None:
    """Append one AdaptationAudit and gauge the per-step prediction errors."""
    assert context.audit is not None
    cand = _candidate_choice(context, strategy, old_alloc, result, nests, grid)
    plan = result.plan
    record = context.audit.record(
        AdaptationAudit(
            step=step,
            strategy=strategy.name,
            chosen=chosen or strategy.name,
            n_nests=len(nests),
            predicted_scratch_exec=cand.scratch_exec,
            predicted_scratch_redist=cand.scratch_redist,
            predicted_diffusion_exec=cand.diffusion_exec,
            predicted_diffusion_redist=cand.diffusion_redist,
            predicted_exec=exec_pred,
            predicted_redist=plan.predicted_time if plan else 0.0,
            observed_exec=exec_actual,
            observed_redist=plan.measured_time if plan else 0.0,
        )
    )
    recorder = get_recorder()
    recorder.gauge("audit.exec_error", record.exec_error)
    recorder.gauge("audit.redist_error", record.redist_error)


def _feed_ledger(
    ledger: CommLedger,
    result: StepResult,
    realloc: ProcessorReallocator,
    step: int = 0,
) -> None:
    """Account one adaptation point's executed transfers in the ledger.

    Also flight-records the step's busiest-link heat (``link.heat``, the
    top contributing rank pairs) and the cumulative sent-bytes skew
    (``ledger.skew``) so live mission-control views render hot spots
    without the ledger object itself.
    """
    plan = result.plan
    assert plan is not None
    mapping = realloc.machine.mapping
    for move in plan.moves:
        ledger.add_messages(move.messages, mapping)
    n_messages = sum(len(m.messages) for m in plan.moves)
    if n_messages:
        link_state = getattr(realloc, "link_state", None)
        if link_state is not None:
            # The reallocator's step just delta-updated the state to hold
            # exactly this plan's message sets, so the busiest-link query
            # is O(links) + the crossing keys — no concat, no re-route.
            link, load, contributions = link_state.busiest_link_contributions()
        else:
            all_msgs = MessageSet.concat([m.messages for m in plan.moves])
            link, load, contributions = realloc.simulator.busiest_link_contributions(
                all_msgs
            )
        ledger.add_busiest_link(load, contributions)
        sanitizer = get_sanitizer()
        if sanitizer.enabled:
            sanitizer.after_busiest_link(load, contributions)
        flight = get_flight_recorder()
        top = sorted(contributions.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        flight.emit(
            "link.heat",
            step=step,
            link=int(link),
            load=float(load),
            pairs=";".join(f"{s}>{d}:{b:.0f}" for (s, d), b in top),
        )
        skew = ledger.skew("sent")
        flight.emit(
            "ledger.skew",
            step=step,
            gini=round(skew.gini, 6),
            max_over_mean=round(skew.max_over_mean, 6),
            total=float(skew.total),
        )


def run_both_strategies(
    workload: Workload, context: ExperimentContext, flow_level: bool = False
) -> tuple[RunResult, RunResult]:
    """Run scratch and diffusion on the same workload and fixtures."""
    scratch = run_workload(workload, ScratchStrategy(), context, flow_level=flow_level)
    diffusion = run_workload(
        workload, DiffusionStrategy(), context, flow_level=flow_level
    )
    return scratch, diffusion
