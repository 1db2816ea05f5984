"""The one adaptation-point driver and the rules its callers share.

A resized retained nest is regridded at its new size on the ranks that
hold it, then moved by its plan move; an empty nest set is a point like
any other.  The soak, the coupled simulation, the workload runner and a
bare stepper must all follow both rules.  The plan is the move set: the
bytes a point moves, the ledger books and a retried move re-sends are
the plan's.
"""

import sys

import numpy as np
import pytest

from repro.core import AdaptationStepper, DiffusionStrategy, ProcessorReallocator
from repro.core.dataplane import (
    BackoffPolicy,
    RankStore,
    TransientRedistributionError,
    gather_nest,
)
from repro.experiments.runner import ExperimentContext, run_workload
from repro.experiments.workloads import Workload
from repro.faults.soak import SoakConfig, run_soak
from repro.grid import ProcessorGrid, Rect
from repro.mpisim.ledger import CommLedger
from repro.obs import FlightRecorder, use_recorder
from repro.perfmodel import ExecTimePredictor, ExecutionOracle, ProfileTable
from repro.topology import blue_gene_l, fist_cluster
from repro.wrf import CoupledSimulation, DomainConfig, mumbai_2005_scenario

SEED = 5


def fault_free(n_steps):
    """A soak config with no faults and no flaky rounds."""
    return SoakConfig(
        name="stepper", seed=SEED, n_steps=n_steps, n_crashes=0, n_flaky_steps=0
    )


def payload(nest_id, nx, ny):
    return np.arange(nx * ny, dtype=float).reshape(ny, nx) + 1000.0 * nest_id


def held_nests(store):
    return set(store.nests)


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` at every ``repro`` module binding it."""
    original = getattr(sys.modules[module], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("repro") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def bare_stepper(**kwargs):
    machine = blue_gene_l(256)
    predictor = ExecTimePredictor(ProfileTable(ExecutionOracle(), seed=SEED))
    return AdaptationStepper(
        ProcessorReallocator(machine, DiffusionStrategy(), predictor),
        store=RankStore(machine.ncores),
        **kwargs,
    )


def rects_by_step(events, n_steps):
    """``{nest: Rect}`` per point, read back from the ``alloc.rect`` events."""
    out = [{} for _ in range(n_steps)]
    for e in events:
        if e.kind == "alloc.rect":
            d = e.data
            out[d["step"]][d["nest"]] = Rect(d["x"], d["y"], d["w"], d["h"])
    return out


class TestResizedNestIsRegriddedThenMoved:
    #: nest 1 keeps its id and grows from 40x30 to 48x36 at point 2
    STEPS = [
        {1: (40, 30)},
        {1: (40, 30), 2: (30, 32)},
        {1: (48, 36), 2: (30, 32)},
    ]

    def test_soak_moves_the_resized_nest(self):
        workload = Workload(name="resize", steps=[dict(s) for s in self.STEPS])
        seen = {}

        def look(store, step):
            if step == 2:
                seen["field"] = gather_nest(store, 1, 48, 36)

        report = run_soak(fault_free(3), workload, tamper=look)
        assert report.ok and report.data_failures == 0
        # one move per retained nest-point: 1 at point 1, 1 and 2 at point 2
        assert report.checks_run["execute.conservation"] == 3
        # the blocks tile the new size (the gather above), and the bit-for-bit
        # audit compared them with the nest's seeded field at that size
        assert seen["field"].shape == (36, 48)
        assert report.data_checks == 1 + 2 + 2

    def test_coupled_simulation_verifies_then_regrids(self):
        cfg = DomainConfig(nx=128, ny=96, sim_grid=ProcessorGrid(8, 8))
        sim = CoupledSimulation(
            machine=blue_gene_l(256),
            scenario=mumbai_2005_scenario(seed=11, n_steps=50, config=cfg),
            n_analysis=16,
            roi_side_range=(12, 40),
        )
        for _ in range(20):
            before = dict(sim.reallocator.nest_sizes)
            r = sim.step()
            now = sim.reallocator.nest_sizes
            resized = [n for n in r.reallocation.retained if before[n] != now[n]]
            if resized:
                break
        else:
            pytest.fail("no retained nest changed size in 20 points")
        qcloud, _ = sim.model.fields()
        for nid in resized:
            assert nid in r.verified_nests
            nx, ny = now[nid]
            fresh = sim.tracker.live[nid].interpolate_from_parent(qcloud)
            assert np.array_equal(gather_nest(sim.store, nid, nx, ny), fresh)


class TestVerifyCoversTheRegrid:
    def test_a_corrupted_regrid_scatter_is_caught(self, monkeypatch):
        """``verify`` compares a regridded nest's moved field with the
        field it scattered, so a scatter that corrupts one value fails the
        point; a gather taken after that scatter would hold the same
        corruption and pass."""
        import repro.core.stepper as stepper_module

        real_scatter = stepper_module.scatter_nest

        def corrupting_scatter(store, nest_id, field_data, allocation):
            real_scatter(store, nest_id, field_data, allocation)
            store.nests[nest_id].buf[7] = -store.nests[nest_id].buf[7]

        steps = TestResizedNestIsRegriddedThenMoved.STEPS
        stepper = bare_stepper(verify=True)
        for nests in steps[:2]:
            stepper.step(nests, payload)
        # at the last point nest 1 is regridded from 40x30 to 48x36 and
        # nothing is created: the regrid is the point's one scatter
        monkeypatch.setattr(stepper_module, "scatter_nest", corrupting_scatter)
        with pytest.raises(RuntimeError, match="nest 1: payload corrupted"):
            stepper.step(steps[2], payload)


class TestThePlanIsTheExecutedMoveSet:
    #: as TestResizedNestIsRegriddedThenMoved, but nest 1 grows enough at
    #: point 2 that its rectangle moves (at 48x36 it keeps its ranks, so
    #: the point moves no bytes at either size)
    STEPS = [
        {1: (40, 30)},
        {1: (40, 30), 2: (30, 32)},
        {1: (160, 120), 2: (30, 32)},
    ]

    def test_moved_bytes_equal_the_plan_and_the_ledger(self):
        ledger = CommLedger(blue_gene_l(256).ncores)
        stepper = bare_stepper(ledger=ledger, verify=True)
        sent, moved = 0.0, []
        for nests in self.STEPS:
            point = stepper.step(nests, payload)
            plan = point.reallocation.plan
            booked = float(ledger.sent.sum()) - sent
            sent += booked
            planned = plan.network_bytes if plan is not None else 0.0
            assert point.moved_bytes == planned == booked
            assert point.verified == point.reallocation.retained
            moved.append(point.moved_bytes)
        # the resize point moves nest 1 over the network at its new size
        assert moved[2] > 0

    def test_ledger_hop_bytes_are_the_plans(self):
        """The ledger books the hop counts each move took where it was
        built: over a 12-point synthetic run its hop-bytes sum to the
        plans' totals and to an independent recount of their messages."""
        from repro.experiments import synthetic_workload
        from repro.mpisim import MessageSet, hop_bytes

        machine = blue_gene_l(256)
        ledger = CommLedger(machine.ncores)
        predictor = ExecTimePredictor(ProfileTable(ExecutionOracle(), seed=SEED))
        stepper = AdaptationStepper(
            ProcessorReallocator(machine, DiffusionStrategy(), predictor),
            ledger=ledger,
        )
        planned = recount = 0.0
        for nests in synthetic_workload(seed=SEED, n_steps=12).steps:
            plan = stepper.step(nests).reallocation.plan
            if plan is not None:
                planned += plan.hop_bytes_total
                messages = MessageSet.concat([move.messages for move in plan.moves])
                recount += hop_bytes(messages, machine.mapping)[0]
        assert planned > 0
        assert float(ledger.hop_bytes.sum()) == planned == recount

    def test_each_retained_nest_builds_one_transfer_matrix(self, monkeypatch):
        calls = count_calls(monkeypatch, "repro.grid.overlap", "transfer_matrix")
        stepper = bare_stepper()
        for nests in self.STEPS:
            before = len(calls)
            point = stepper.step(nests, payload)
            assert len(calls) - before == len(point.reallocation.retained)
        assert len(calls) == 1 + 2


class TestEmptyNestSet:
    #: two nests, none for one point, then one new and one more
    STEPS = [
        {1: (40, 30), 2: (30, 32)},
        {},
        {3: (36, 28)},
        {3: (36, 28), 4: (30, 30)},
    ]

    def test_every_driver_allocates_the_empty_point_alike(self):
        machine = fist_cluster(16)
        workload = Workload(name="gap", steps=[dict(s) for s in self.STEPS])

        context = ExperimentContext(machine)
        # the soak's predictor: profiled with its own seed
        context.predictor = ExecTimePredictor(ProfileTable(context.oracle, seed=SEED))
        recorder = FlightRecorder()
        with use_recorder(recorder):
            run_workload(workload, DiffusionStrategy(), context)
        runner = rects_by_step(recorder.events(), len(self.STEPS))

        soak_held = {}
        recorder = FlightRecorder()
        with use_recorder(recorder):
            report = run_soak(
                fault_free(len(self.STEPS)),
                workload,
                tamper=lambda store, step: soak_held.setdefault(step, held_nests(store)),
            )
        assert report.ok
        soak = rects_by_step(recorder.events(), len(self.STEPS))

        predictor = ExecTimePredictor(ProfileTable(ExecutionOracle(), seed=SEED))
        stepper = AdaptationStepper(
            ProcessorReallocator(machine, DiffusionStrategy(), predictor),
            store=RankStore(machine.ncores),
            verify=True,
        )
        coupled = []
        for nests in self.STEPS:
            point = stepper.step(nests, payload)
            coupled.append(point.reallocation.allocation.rects)
            assert held_nests(stepper.store) == set(nests)
            for nid, (nx, ny) in nests.items():
                assert np.array_equal(
                    gather_nest(stepper.store, nid, nx, ny), payload(nid, nx, ny)
                )

        assert runner == soak == coupled
        assert runner[1] == {}
        assert soak_held[1] == set()


class TestRetriedBytesInThePlanUnit:
    """A retried round re-sends its nest's planned messages, priced at the
    cost model's bytes per point like every plan."""

    def test_retried_bytes_equal_the_planned_messages(self):
        machine = blue_gene_l(256)
        predictor = ExecTimePredictor(ProfileTable(ExecutionOracle(), seed=SEED))
        ledger = CommLedger(machine.ncores)
        stepper = AdaptationStepper(
            ProcessorReallocator(machine, DiffusionStrategy(), predictor),
            store=RankStore(machine.ncores),
            ledger=ledger,
            retry=BackoffPolicy(),
        )
        stepper.step({1: (40, 30), 2: (30, 32)}, payload)

        def first_round_fails(attempt):
            if attempt == 0:
                raise TransientRedistributionError("injected")
            return 0.0

        point = stepper.step(
            {1: (40, 30), 2: (30, 32), 3: (36, 28)}, payload, first_round_fails
        )
        planned = {m.nest_id: m.messages for m in point.reallocation.plan.moves}
        assert [o.nest_id for o in point.retries] == sorted(planned) == [1, 2]
        for outcome in point.retries:
            assert outcome.attempts == 2
            assert outcome.retried_bytes == planned[outcome.nest_id].total_bytes
        retried = sum(o.retried_bytes for o in point.retries)
        assert retried > 0
        assert ledger.retried.sum() == retried
