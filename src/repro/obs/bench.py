"""``repro bench`` — the pinned perf-baseline suite.

Every phase is one hot path of the reproduction, set up once on pinned
inputs (fixed seeds, fixed machine presets) and then timed over several
repeats; the per-phase **median/p95** wall-clock stats land in
``BENCH_baseline.json`` so any future change has a regression baseline
to diff against (``repro bench`` again, compare the JSON).

The suite covers the paper's whole latency argument end to end:

===========================  ==================================================
phase                        what it times
===========================  ==================================================
``wrf.fields``               QCLOUD + OLR synthesis over the parent domain
``wrf.split_files``          cutting one step's split files from its fields
``analysis.pda``             Algorithm 1 + NNC over one step's split files
``pda.aggregate``            batched split-file summarisation alone
``tree.scratch``             Huffman build + rectangle layout (§IV-A)
``tree.diffusion``           Algorithm-3 tree edit + layout (§IV-B)
``grid.transfer_matrix``     per-nest transfer-matrix construction
``topology.folded_mapping``  the folded grid-to-torus rank mapping
``netsim.link_loads``        per-link byte accounting (ring intervals)
``netsim.bottleneck``        contention-aware alltoallv timing
``netsim.flow``              max-min-fair flow simulation
``redist.plan``              full redistribution planning
``dataplane.roundtrip``      scatter → executed redistribution → gather
``e2e.compare``              the ``repro compare`` path, scratch + diffusion
``serve.throughput``         a session fleet through the async scheduler
``serve.decision_latency``   one adaptation point through a live session
``serve.recovery_latency``   cold journal recovery of a crashed fleet
===========================  ==================================================

Every phase times the shipped code path, and so does the committed
baseline: the scalar ``*_reference`` oracles are test-only specifications
(``docs/performance.md``), never benchmarked.

A second suite, ``scale`` (``repro bench --suite scale``), times the
large-machine scaling story instead: steady-state adaptation steps —
incremental link-load deltas included — at a fixed nest count across
machine presets from 1k to 64k ranks (``scale.ranks_*``, time vs ranks),
at a fixed 4096-rank preset across nest counts (``scale.nests_*``, time
vs nests), dynamic-strategy points under one-nest-per-point churn on
4096 ranks (``scale.dynamic_churn``, one churn period per timed call),
and sparse pair-byte ledger accounting (``scale.ledger_pairs``, quick:
4k ranks, full: 64k).  Quick mode stops at 4096 ranks (the CI
``scale-smoke`` gate).

This module lives in ``repro.obs`` and is therefore allowed to read raw
clocks (reprolint R007); every other module must report time through
spans instead.  Heavyweight imports happen inside the phase setups so
importing :mod:`repro.obs` stays cheap for instrumented hot paths.
"""

from __future__ import annotations

import functools
import itertools
import json
import platform
import subprocess
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.stats import PhaseStats, summarise

if TYPE_CHECKING:
    from repro.analysis.records import SplitFile
    from repro.core.allocation import Allocation
    from repro.core.strategy import ReallocationStrategy
    from repro.experiments.runner import ExperimentContext
    from repro.grid.procgrid import ProcessorGrid
    from repro.mpisim.alltoallv import MessageSet
    from repro.mpisim.costmodel import CostModel
    from repro.mpisim.netsim import NetworkSimulator
    from repro.topology.machines import MachineSpec
    from repro.wrf.model import WrfLikeModel

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_BASELINE_PATH",
    "SCALE_BASELINE_PATH",
    "BenchPhase",
    "BenchResult",
    "bench_phases",
    "scale_phases",
    "git_describe",
    "run_bench",
    "format_bench",
    "write_baseline",
]

#: schema 2 added the ``machine`` preset and ``git_describe`` header
#: fields so compared baselines are provably like-for-like
BENCH_SCHEMA = 2
DEFAULT_BASELINE_PATH = "BENCH_baseline.json"
#: scale-suite results are a different machine ladder — never the same
#: file as the default-suite baseline, or a suiteless `repro bench
#: --suite scale` would silently clobber the CI perf gate's reference
SCALE_BASELINE_PATH = "BENCH_scale_baseline.json"

#: pinned inputs — changing any of these invalidates existing baselines
_BENCH_SEED = 2005
_FULL_MACHINE = "bgl-1024"
_QUICK_MACHINE = "bgl-256"

#: the scale suite's machine ladder (time vs ranks at a fixed nest count);
#: quick mode stops at 4096 ranks so the CI smoke gate stays fast
_SCALE_RANK_MACHINES = (
    ("1k", "bgl-1024"),
    ("4k", "bgl-4096"),
    ("16k", "bgl-16k"),
    ("64k", "bgl-64k"),
)
_SCALE_QUICK_RANK_MACHINES = _SCALE_RANK_MACHINES[:2]
_SCALE_FIXED_NESTS = 6
#: time vs nests (and the dynamic-strategy churn) at a fixed machine
_SCALE_NEST_MACHINE = "bgl-4096"
_SCALE_NEST_COUNTS = (8, 32)
#: dynamic-strategy churn: live nest count and nest side range (fine-grid
#: points); one period of the count's 3..8..3 sweep is one timed call, as
#: a single point's cost depends on where in the sweep it falls
_CHURN_NESTS = (3, 8)
_CHURN_SIDES = (48, 120)
_CHURN_PERIOD = 2 * (_CHURN_NESTS[1] - _CHURN_NESTS[0])


@dataclass(frozen=True)
class BenchPhase:
    """One benchmarkable hot path.

    ``setup(quick)`` builds the pinned inputs once and returns the
    zero-argument callable the harness times; setup cost is excluded from
    the measurement.
    """

    name: str
    description: str
    setup: Callable[[bool], Callable[[], object]]


def git_describe() -> str:
    """``git describe`` of the working tree ("unknown" outside a repo)."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    described = out.stdout.strip()
    return described if out.returncode == 0 and described else "unknown"


@dataclass(frozen=True)
class BenchResult:
    """The outcome of one suite run."""

    phases: dict[str, PhaseStats]
    repeats: int
    quick: bool
    unix_time: float
    machine: str = ""
    git_describe: str = "unknown"

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": BENCH_SCHEMA,
            "suite": "repro-bench",
            "quick": self.quick,
            "repeats": self.repeats,
            "unix_time": self.unix_time,
            "machine": self.machine,
            "git_describe": self.git_describe,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "phases": {name: st.to_dict() for name, st in sorted(self.phases.items())},
        }


# ---------------------------------------------------------------------------
# phase setups (pinned inputs; heavyweight imports kept local)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _AllocationPair:
    """Two consecutive pinned allocations plus the fixtures around them."""

    machine: MachineSpec
    cost: CostModel
    simulator: NetworkSimulator
    old: Allocation
    new: Allocation
    sizes: dict[int, tuple[int, int]]


def _allocation_pair(quick: bool) -> _AllocationPair:
    from repro.core import DiffusionStrategy, ProcessorReallocator
    from repro.perfmodel import ExecTimePredictor, ExecutionOracle, ProfileTable
    from repro.topology import MACHINES

    machine = MACHINES[_QUICK_MACHINE if quick else _FULL_MACHINE]
    predictor = ExecTimePredictor(ProfileTable(ExecutionOracle()))
    realloc = ProcessorReallocator(machine, DiffusionStrategy(), predictor)
    # pinned churn: nest 3 dies, 5 and 6 appear, and every retained nest
    # changes size enough that its rectangle moves — the transfer matrices
    # and message sets below are non-trivial on both machines
    step1 = {1: (120, 120), 2: (90, 150), 3: (60, 60), 4: (150, 96)}
    step2 = {1: (60, 60), 2: (180, 150), 4: (90, 60), 5: (150, 150), 6: (78, 84)}
    old = realloc.step(step1).allocation
    new = realloc.step(step2).allocation
    return _AllocationPair(
        machine=machine,
        cost=realloc.cost,
        simulator=realloc.simulator,
        old=old,
        new=new,
        sizes={**step1, **step2},
    )


def _pinned_model(quick: bool) -> WrfLikeModel:
    """The pinned Mumbai parent model after its warm-up steps."""
    from repro.wrf import WrfLikeModel, mumbai_2005_scenario

    warmup_steps = 6 if quick else 14
    scenario = mumbai_2005_scenario(seed=_BENCH_SEED, n_steps=warmup_steps + 2)
    model = WrfLikeModel(
        scenario.config, scenario.birth_fn, scenario.initial_systems
    )
    for _ in range(warmup_steps):
        model.step()
    return model


def _pda_fixture(quick: bool) -> tuple[list[SplitFile | None], ProcessorGrid, int]:
    """Pinned split files + analysis shape shared by the PDA phases."""
    model = _pinned_model(quick)
    files: list[SplitFile | None] = list(model.write_split_files())
    n_analysis = 16 if quick else 64
    return files, model.config.sim_grid, n_analysis


def _setup_wrf_fields(quick: bool) -> Callable[[], object]:
    from repro.wrf.fields import olr_field, qcloud_field

    model = _pinned_model(quick)
    nx, ny = model.config.nx, model.config.ny

    def run() -> object:
        return olr_field(qcloud_field(nx, ny, model.systems))

    return run


def _setup_wrf_split_files(quick: bool) -> Callable[[], object]:
    model = _pinned_model(quick)
    model.fields()  # synthesised once per step; cutting is what is timed

    def run() -> object:
        return model.write_split_files()

    return run


def _setup_pda(quick: bool) -> Callable[[], object]:
    from repro.analysis import PDAConfig, parallel_data_analysis

    files, sim_grid, n_analysis = _pda_fixture(quick)
    config = PDAConfig()

    def run() -> object:
        return parallel_data_analysis(files, sim_grid, n_analysis, config)

    return run


def _setup_pda_aggregate(quick: bool) -> Callable[[], object]:
    from repro.analysis import PDAConfig
    from repro.analysis.pda import aggregate_summaries

    files, _sim_grid, _n_analysis = _pda_fixture(quick)
    present = [f for f in files if f is not None]
    threshold = PDAConfig().olr_threshold

    def run() -> object:
        return aggregate_summaries(present, threshold)

    return run


def _bench_weights(n: int) -> dict[int, float]:
    """A pinned, irregular weight set (no RNG needed)."""
    return {i: 1.0 + float((i * 37) % 13) for i in range(n)}


def _setup_tree_scratch(quick: bool) -> Callable[[], object]:
    from repro.grid.rect import Rect
    from repro.tree import build_huffman, layout_tree

    weights = _bench_weights(10 if quick else 24)
    region = Rect(0, 0, 32, 32)

    def run() -> object:
        return layout_tree(build_huffman(weights), region)

    return run


def _setup_tree_diffusion(quick: bool) -> Callable[[], object]:
    from repro.grid.rect import Rect
    from repro.tree import build_huffman, diffusion_edit, layout_tree

    n = 10 if quick else 24
    weights = _bench_weights(n)
    old = build_huffman(weights)
    assert old is not None  # n >= 10 leaves
    deleted = [0, 3]
    retained = {i: w * 1.25 for i, w in weights.items() if i not in deleted}
    new = {n: 3.0, n + 1: 1.5}
    region = Rect(0, 0, 32, 32)

    def run() -> object:
        edited = diffusion_edit(old, deleted, retained, new)
        return layout_tree(edited, region)

    return run


def _setup_transfer_matrix(quick: bool) -> Callable[[], object]:
    from repro.grid.overlap import transfer_matrix

    pair = _allocation_pair(quick)
    old, new, sizes = pair.old, pair.new, pair.sizes
    retained = sorted(set(old.rects) & set(new.rects))

    def run() -> object:
        return [
            transfer_matrix(
                old.decomposition(nid, *sizes[nid]),
                new.decomposition(nid, *sizes[nid]),
                old.grid.px,
            )
            for nid in retained
        ]

    return run


def _setup_folded_mapping(quick: bool) -> Callable[[], object]:
    from repro.topology import MACHINES, FoldedMapping, Torus3D

    machine = MACHINES[_QUICK_MACHINE if quick else _FULL_MACHINE]
    torus = machine.topology
    assert isinstance(torus, Torus3D)  # the BG/L presets are tori
    px, py = machine.grid

    def run() -> object:
        return FoldedMapping(torus, px, py)

    return run


def _message_fixture(quick: bool) -> tuple[NetworkSimulator, MessageSet]:
    from repro.grid.overlap import transfer_matrix
    from repro.mpisim.alltoallv import MessageSet, messages_from_transfer

    pair = _allocation_pair(quick)
    old, new, sizes = pair.old, pair.new, pair.sizes
    per_nest = []
    for nid in sorted(set(old.rects) & set(new.rects)):
        t = transfer_matrix(
            old.decomposition(nid, *sizes[nid]),
            new.decomposition(nid, *sizes[nid]),
            old.grid.px,
        )
        per_nest.append(messages_from_transfer(t, pair.cost.bytes_per_point))
    return pair.simulator, MessageSet.concat(per_nest)


def _setup_netsim_link_loads(quick: bool) -> Callable[[], object]:
    sim, msgs = _message_fixture(quick)

    def run() -> object:
        return sim.link_loads(msgs)

    return run


def _setup_netsim_bottleneck(quick: bool) -> Callable[[], object]:
    sim, msgs = _message_fixture(quick)

    def run() -> object:
        return sim.bottleneck_time(msgs)

    return run


def _setup_netsim_flow(quick: bool) -> Callable[[], object]:
    # flow sim is epoch-quadratic; keep small
    sim, msgs = _message_fixture(True)

    def run() -> object:
        return sim.flow_time(msgs)

    return run


def _setup_redist_plan(quick: bool) -> Callable[[], object]:
    from repro.core.redistribution import plan_redistribution

    pair = _allocation_pair(quick)

    def run() -> object:
        return plan_redistribution(
            pair.old,
            pair.new,
            pair.sizes,
            pair.machine,
            pair.cost,
            pair.simulator,
        )

    return run


def _setup_dataplane(quick: bool) -> Callable[[], object]:
    import numpy as np

    from repro.core.dataplane import (
        RankStore,
        execute_redistribution,
        gather_nest,
        scatter_nest,
    )
    from repro.core.redistribution import nest_moves

    pair = _allocation_pair(quick)
    old, new = pair.old, pair.new
    move = nest_moves(old, new, pair.sizes, pair.cost)[0]
    nest_id, nx, ny = move.nest_id, move.nx, move.ny
    payload = np.arange(nx * ny, dtype=np.float64).reshape(ny, nx)
    ncores = pair.machine.ncores

    def run() -> object:
        store = RankStore(ncores)
        scatter_nest(store, nest_id, payload, old)
        execute_redistribution(store, move, old, new)
        return gather_nest(store, nest_id, nx, ny)

    return run


def _setup_compare(quick: bool) -> Callable[[], object]:
    from repro.core import DiffusionStrategy, ScratchStrategy
    from repro.experiments import synthetic_workload
    from repro.experiments.runner import ExperimentContext, run_workload
    from repro.topology import MACHINES

    context = ExperimentContext(MACHINES[_QUICK_MACHINE])
    workload = synthetic_workload(seed=0, n_steps=6 if quick else 20)

    def run() -> object:
        scratch = run_workload(workload, ScratchStrategy(), context)
        diffusion = run_workload(workload, DiffusionStrategy(), context)
        return scratch.total("measured_redist"), diffusion.total("measured_redist")

    return run


def _setup_serve_throughput(quick: bool) -> Callable[[], object]:
    import asyncio

    from repro.serve.scheduler import SchedulerConfig, SessionScheduler
    from repro.serve.session import ScenarioSpec
    from repro.serve.store import SessionStore

    n_sessions, n_steps = (6, 3) if quick else (8, 4)
    machine = _QUICK_MACHINE if quick else _FULL_MACHINE
    specs = [
        ScenarioSpec(
            seed=_BENCH_SEED + i,
            steps=n_steps,
            machine=machine,
            priority=1 if i % 4 == 0 else 0,
        )
        for i in range(n_sessions)
    ]
    config = SchedulerConfig(workers=4)

    def run() -> object:
        store = SessionStore(capacity=n_sessions)
        for spec in specs:
            store.create(spec)
        scheduler = SessionScheduler(store, config)
        asyncio.run(scheduler.run_until_drained())
        return store.counts()

    return run


def _setup_serve_decision_latency(quick: bool) -> Callable[[], object]:
    from repro.serve.session import ScenarioSpec, Session

    # one timed call = one adaptation point through a live session; the
    # session is long enough that warm-up + repeats never exhaust it, and
    # a fresh identical one replaces it if they somehow do
    spec = ScenarioSpec(
        seed=_BENCH_SEED,
        steps=64 if quick else 128,
        machine=_QUICK_MACHINE if quick else _FULL_MACHINE,
    )
    state = {"session": Session("bench-latency", spec)}

    def run() -> object:
        session = state["session"]
        if session.terminal:
            session = state["session"] = Session("bench-latency", spec)
        return session.advance()

    return run


def _setup_serve_recovery_latency(quick: bool) -> Callable[[], object]:
    import json
    import tempfile
    from pathlib import Path

    from repro.serve.session import ScenarioSpec
    from repro.serve.store import SessionStore

    # a crashed service's journal: a mix of finished, mid-run and pending
    # sessions plus the truncated trailing record a crash mid-append
    # leaves behind; one timed call = one cold SessionStore.recover()
    # (compact=False so every repeat parses the identical file)
    n_sessions = 32 if quick else 96
    spec = ScenarioSpec(
        seed=_BENCH_SEED,
        steps=4,
        machine=_QUICK_MACHINE if quick else _FULL_MACHINE,
    )
    path = Path(tempfile.mkdtemp(prefix="repro-bench-recover-")) / "journal.jsonl"
    lines = [json.dumps({"op": "counter", "next": n_sessions}, sort_keys=True)]
    for i in range(n_sessions):
        sid = f"s{i:05d}"
        lines.append(
            json.dumps(
                {"op": "create", "id": sid, "spec": spec.to_dict()}, sort_keys=True
            )
        )
        if i % 3 == 0:
            state = {"op": "state", "id": sid, "state": "done", "step": 4, "reason": ""}
        elif i % 3 == 1:
            state = {
                "op": "state",
                "id": sid,
                "state": "running",
                "step": 2,
                "reason": "",
            }
        else:
            continue  # still pending: create record only
        lines.append(json.dumps(state, sort_keys=True))
    payload = "\n".join(lines) + "\n" + '{"op": "state", "id": "s000'
    path.write_text(payload, encoding="utf-8")

    def run() -> object:
        store = SessionStore.recover(path, capacity=n_sessions + 1, compact=False)
        return (len(store), store.journal_skipped_lines)

    return run


def bench_phases() -> tuple[BenchPhase, ...]:
    """The pinned suite, in dependency-layer order."""
    return (
        BenchPhase(
            "wrf.fields",
            "QCLOUD + OLR synthesis over the parent domain",
            _setup_wrf_fields,
        ),
        BenchPhase(
            "wrf.split_files",
            "one step's split files cut from its fields",
            _setup_wrf_split_files,
        ),
        BenchPhase(
            "analysis.pda",
            "Algorithm 1 + NNC over one step's split files",
            _setup_pda,
        ),
        BenchPhase(
            "pda.aggregate",
            "batched split-file summarisation alone",
            _setup_pda_aggregate,
        ),
        BenchPhase(
            "tree.scratch",
            "Huffman build + rectangle layout",
            _setup_tree_scratch,
        ),
        BenchPhase(
            "tree.diffusion",
            "Algorithm-3 diffusion edit + layout",
            _setup_tree_diffusion,
        ),
        BenchPhase(
            "grid.transfer_matrix",
            "per-nest transfer-matrix construction",
            _setup_transfer_matrix,
        ),
        BenchPhase(
            "topology.folded_mapping",
            "the folded grid-to-torus rank mapping",
            _setup_folded_mapping,
        ),
        BenchPhase(
            "netsim.link_loads",
            "per-link byte accounting (ring intervals)",
            _setup_netsim_link_loads,
        ),
        BenchPhase(
            "netsim.bottleneck",
            "contention-aware alltoallv timing",
            _setup_netsim_bottleneck,
        ),
        BenchPhase(
            "netsim.flow",
            "max-min-fair flow simulation",
            _setup_netsim_flow,
        ),
        BenchPhase(
            "redist.plan",
            "full redistribution planning",
            _setup_redist_plan,
        ),
        BenchPhase(
            "dataplane.roundtrip",
            "scatter -> executed redistribution -> gather",
            _setup_dataplane,
        ),
        BenchPhase(
            "e2e.compare",
            "the `repro compare` path, scratch + diffusion",
            _setup_compare,
        ),
        BenchPhase(
            "serve.throughput",
            "a session fleet through the async scheduler, submit to drain",
            _setup_serve_throughput,
        ),
        BenchPhase(
            "serve.decision_latency",
            "one adaptation point through a live session",
            _setup_serve_decision_latency,
        ),
        BenchPhase(
            "serve.recovery_latency",
            "cold SessionStore.recover() of a crashed fleet's journal",
            _setup_serve_recovery_latency,
        ),
    )


# ---------------------------------------------------------------------------
# the scale suite (large-machine scaling curves)
# ---------------------------------------------------------------------------


def _scale_nests(n: int) -> Iterator[list[dict[int, tuple[int, int]]]]:
    """Pinned churn between two nest sets, alternating per point, one
    point per batch.

    Every 4th nest id is replaced across phases (a delete + a create per
    toggle) and the survivors change size, so each timed step retires and
    re-lands nests through the full plan + link-state delta path.
    """
    for phase in itertools.cycle((0, 1)):
        nests: dict[int, tuple[int, int]] = {}
        for i in range(n):
            nid = i + 1000 * phase if i % 4 == 0 else i
            nests[nid] = (
                48 + 6 * ((i + phase) % 5),
                48 + 6 * ((i + 2 * phase) % 5),
            )
        yield [nests]


def _churn_schedule() -> Iterator[dict[int, tuple[int, int]]]:
    """Pinned churn shaped like the repository benchmark's: one insert or
    delete per point as the nest count sweeps 3..8..3, new ids, sides of
    48..120 points, rotating victims."""
    lo, period = _CHURN_NESTS[0], _CHURN_PERIOD
    side_lo, side_span = _CHURN_SIDES[0], _CHURN_SIDES[1] - _CHURN_SIDES[0] + 1
    nests: dict[int, tuple[int, int]] = {}
    born = 0
    for t in itertools.count():
        want = lo + min(t % period, period - t % period)
        while len(nests) > want:
            del nests[sorted(nests)[(7 * t) % len(nests)]]
        while len(nests) < want:
            born += 1
            nests[born] = (
                side_lo + (37 * born) % side_span,
                side_lo + (53 * born) % side_span,
            )
        yield dict(nests)


def _churn_batches() -> Iterator[list[dict[int, tuple[int, int]]]]:
    """:func:`_churn_schedule` one period per batch, after a two-period
    set-up batch that brings every per-simulator structure to its steady
    state before timing."""
    points = _churn_schedule()
    yield list(itertools.islice(points, 2 * _CHURN_PERIOD))
    while True:
        yield list(itertools.islice(points, _CHURN_PERIOD))


def _scale_step_setup(
    machine_name: str,
    schedule: Callable[[], Iterator[list[dict[int, tuple[int, int]]]]],
    make_strategy: Callable[[ExperimentContext], ReallocationStrategy],
) -> Callable[[bool], Callable[[], object]]:
    """Adaptation steps on ``machine_name`` under a pinned schedule.

    The schedule yields batches of points: set-up runs the first batch,
    and each timed call runs the next as full adaptation points (weights,
    the strategy, redistribution plan, incremental link-load deltas).
    """

    def setup(quick: bool) -> Callable[[], object]:
        from repro.core import ProcessorReallocator
        from repro.experiments.runner import ExperimentContext
        from repro.topology import MACHINES

        ctx = ExperimentContext(MACHINES[machine_name])
        assert ctx.predictor is not None
        realloc = ProcessorReallocator(ctx.machine, make_strategy(ctx), ctx.predictor, ctx.cost)
        batches = schedule()
        for nests in next(batches):
            realloc.step(nests)

        def run() -> object:
            steps = [realloc.step(nests) for nests in next(batches)]
            return sum(step.plan.measured_time for step in steps if step.plan)

        return run

    return setup


def _setup_scale_ledger(quick: bool) -> Callable[[], object]:
    import numpy as np

    from repro.mpisim.ledger import PairByteAccumulator
    from repro.util.rng import make_rng

    nranks = 4096 if quick else 65536
    n_pairs = 40_000 if quick else 160_000
    chunk = 4000
    rng = make_rng(_BENCH_SEED)
    src = rng.integers(0, nranks, size=n_pairs, dtype=np.int64)
    dst = rng.integers(0, nranks, size=n_pairs, dtype=np.int64)
    nbytes = 8.0 * rng.integers(1, 4096, size=n_pairs, dtype=np.int64)
    slices = [slice(k, k + chunk) for k in range(0, n_pairs, chunk)]

    def run() -> object:
        acc = PairByteAccumulator(nranks)
        for sl in slices:
            acc.add_pairs(src[sl], dst[sl], nbytes[sl])
        return len(acc), acc.total(), len(acc.top(10))

    return run


def scale_phases(quick: bool = False) -> tuple[BenchPhase, ...]:
    """The large-machine scaling suite.

    ``scale.ranks_*`` holds the nest count fixed and walks the machine
    ladder (per-adaptation time vs ranks must grow sub-linearly);
    ``scale.nests_*`` holds the machine fixed and scales the nest count;
    ``scale.dynamic_churn`` times the dynamic strategy's points, candidate
    costing included, under churn; ``scale.ledger_pairs`` times sparse
    pair-byte accounting alone.
    """
    from repro.core import DiffusionStrategy
    from repro.experiments.runner import ExperimentContext

    def diffusion(ctx: ExperimentContext) -> ReallocationStrategy:
        return DiffusionStrategy()

    rank_machines = _SCALE_QUICK_RANK_MACHINES if quick else _SCALE_RANK_MACHINES
    phases = [
        BenchPhase(
            f"scale.ranks_{tag}",
            f"steady-state adaptation step, {_SCALE_FIXED_NESTS} nests, {name}",
            _scale_step_setup(name, functools.partial(_scale_nests, _SCALE_FIXED_NESTS), diffusion),
        )
        for tag, name in rank_machines
    ]
    phases.extend(
        BenchPhase(
            f"scale.nests_{n}",
            f"steady-state adaptation step, {n} nests, {_SCALE_NEST_MACHINE}",
            _scale_step_setup(_SCALE_NEST_MACHINE, functools.partial(_scale_nests, n), diffusion),
        )
        for n in _SCALE_NEST_COUNTS
    )
    phases.append(
        BenchPhase(
            "scale.dynamic_churn",
            f"{_CHURN_PERIOD} dynamic-strategy points, one nest in or out "
            f"per point, {_SCALE_NEST_MACHINE}",
            _scale_step_setup(
                _SCALE_NEST_MACHINE, _churn_batches, ExperimentContext.make_dynamic_strategy
            ),
        )
    )
    phases.append(
        BenchPhase(
            "scale.ledger_pairs",
            "sparse pair-byte accumulation + top-k (quick: 4k ranks, full: 64k)",
            _setup_scale_ledger,
        )
    )
    return tuple(phases)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def run_bench(
    quick: bool = False,
    repeats: int | None = None,
    phases: Iterable[str] | None = None,
    progress: Callable[[str], None] | None = None,
    suite: str = "default",
) -> BenchResult:
    """Run the suite and aggregate per-phase wall-clock stats.

    Each phase is set up once, warmed up once (excluded), then timed
    ``repeats`` times.  ``phases`` selects a subset by name; unknown
    names raise ``ValueError``.  ``suite`` picks ``"default"`` (the pinned
    hot-path baseline) or ``"scale"`` (the large-machine scaling
    curves).
    """
    if repeats is None:
        repeats = 3 if quick else 5
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if suite == "default":
        suite_phases = bench_phases()
        machine = _QUICK_MACHINE if quick else _FULL_MACHINE
    elif suite == "scale":
        suite_phases = scale_phases(quick)
        machine = "scale"
    else:
        raise ValueError(
            f"unknown bench suite {suite!r}; known: ('default', 'scale')"
        )
    catalogue = {p.name: p for p in suite_phases}
    if phases is None:
        selected = list(catalogue.values())
    else:
        wanted = list(phases)
        unknown = [name for name in wanted if name not in catalogue]
        if unknown:
            raise ValueError(
                f"unknown bench phase(s) {unknown}; known: {sorted(catalogue)}"
            )
        selected = [catalogue[name] for name in wanted]
    results: dict[str, PhaseStats] = {}
    for phase in selected:
        if progress is not None:
            progress(f"[{phase.name}] {phase.description}")
        fn = phase.setup(quick)
        fn()  # warm-up (caches, lazy imports, first-touch allocation)
        durations: list[float] = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            durations.append(time.perf_counter() - t0)
        results[phase.name] = summarise(durations)
    return BenchResult(
        phases=results,
        repeats=repeats,
        quick=quick,
        unix_time=time.time(),
        machine=machine,
        git_describe=git_describe(),
    )


def write_baseline(
    result: BenchResult, path: str | Path = DEFAULT_BASELINE_PATH
) -> Path:
    """Serialise ``result`` to JSON at ``path``; returns the path."""
    out = Path(path)
    out.write_text(json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8")
    return out


def format_bench(result: BenchResult) -> str:
    """Human-readable per-phase stats table (milliseconds)."""
    from repro.util.tables import format_table

    rows = []
    for name, st in sorted(result.phases.items()):
        rows.append(
            (
                name,
                str(st.count),
                f"{st.median * 1e3:10.3f}",
                f"{st.p95 * 1e3:10.3f}",
                f"{st.min * 1e3:10.3f}",
                f"{st.max * 1e3:10.3f}",
            )
        )
    mode = "quick" if result.quick else "full"
    tag = f", {result.machine}" if result.machine else ""
    return format_table(
        ["phase", "repeats", "median ms", "p95 ms", "min ms", "max ms"],
        rows,
        title=(
            f"repro bench ({mode} suite{tag}, {result.git_describe})"
        ),
    )
