"""Tests for repro.core: allocation, strategies, redistribution, reallocator."""

import numpy as np
import pytest

from repro.core import (
    Allocation,
    DiffusionStrategy,
    DynamicStrategy,
    ProcessorReallocator,
    ScratchStrategy,
    StepMetrics,
    plan_redistribution,
    summarize_improvement,
)
from repro.grid import ProcessorGrid, Rect
from repro.mpisim import CostModel
from repro.perfmodel import ExecTimePredictor, ExecutionOracle, ProfileTable
from repro.topology import blue_gene_l, fist_cluster
from repro.tree import build_huffman

GRID = ProcessorGrid(32, 32)
PAPER_WEIGHTS = {1: 0.1, 2: 0.1, 3: 0.2, 4: 0.25, 5: 0.35}


@pytest.fixture(scope="module")
def predictor():
    return ExecTimePredictor(ProfileTable(ExecutionOracle()))


@pytest.fixture(scope="module")
def machine():
    return blue_gene_l(1024)


class TestAllocation:
    def test_from_tree_table1(self):
        a = Allocation.from_tree(build_huffman(PAPER_WEIGHTS), GRID, PAPER_WEIGHTS)
        assert a.table_rows() == [
            (1, 0, "13x8"),
            (2, 256, "13x8"),
            (3, 512, "13x16"),
            (4, 13, "19x13"),
            (5, 429, "19x19"),
        ]

    def test_overlapping_rects_rejected(self):
        with pytest.raises(ValueError):
            Allocation(GRID, None, {1: Rect(0, 0, 4, 4), 2: Rect(2, 2, 4, 4)})

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError):
            Allocation(GRID, None, {1: Rect(30, 30, 4, 4)})

    def test_rect_of_missing(self):
        a = Allocation(GRID, None, {1: Rect(0, 0, 4, 4)})
        with pytest.raises(KeyError):
            a.rect_of(9)

    def test_decomposition(self):
        a = Allocation(GRID, None, {1: Rect(4, 4, 4, 4)})
        d = a.decomposition(1, 100, 100)
        assert d.proc_rect == Rect(4, 4, 4, 4)

    def test_empty(self):
        a = Allocation.from_tree(None, GRID)
        assert a.is_empty and a.nest_ids == []


class TestScratchStrategy:
    def test_ignores_old_allocation(self):
        s = ScratchStrategy()
        old = s.reallocate(None, PAPER_WEIGHTS, GRID)
        weights = {3: 0.27, 5: 0.42, 6: 0.31}
        fresh = s.reallocate(old, weights, GRID)
        direct = s.reallocate(None, weights, GRID)
        assert fresh.rects == direct.rects

    def test_covers_grid(self):
        a = ScratchStrategy().reallocate(None, PAPER_WEIGHTS, GRID)
        assert sum(r.area for r in a.rects.values()) == GRID.nprocs


class TestDiffusionStrategy:
    def test_first_step_equals_scratch(self):
        d = DiffusionStrategy().reallocate(None, PAPER_WEIGHTS, GRID)
        s = ScratchStrategy().reallocate(None, PAPER_WEIGHTS, GRID)
        assert d.rects == s.rects

    def test_paper_example_overlap(self):
        diff = DiffusionStrategy()
        old = diff.reallocate(None, PAPER_WEIGHTS, GRID)
        new = diff.reallocate(old, {3: 0.27, 5: 0.42, 6: 0.31}, GRID)
        for nid in (3, 5):
            assert old.rects[nid].overlaps(new.rects[nid])

    def test_tree_carried_forward(self):
        diff = DiffusionStrategy()
        a = diff.reallocate(None, PAPER_WEIGHTS, GRID)
        b = diff.reallocate(a, {1: 0.5, 3: 0.5}, GRID)
        assert b.tree is not None
        assert sorted(b.tree.nest_ids()) == [1, 3]


class TestPlanRedistribution:
    def _allocs(self):
        diff = DiffusionStrategy()
        old = diff.reallocate(None, PAPER_WEIGHTS, GRID)
        new = diff.reallocate(old, {3: 0.27, 5: 0.42, 6: 0.31}, GRID)
        return old, new

    def test_only_retained_nests_move(self, machine):
        old, new = self._allocs()
        cost = CostModel.for_machine(machine)
        sizes = {i: (300, 300) for i in range(1, 7)}
        plan = plan_redistribution(old, new, sizes, machine, cost)
        assert plan.retained_nests == [3, 5]

    def test_conservation_per_move(self, machine):
        old, new = self._allocs()
        cost = CostModel.for_machine(machine)
        sizes = {i: (240, 180) for i in range(1, 7)}
        plan = plan_redistribution(old, new, sizes, machine, cost)
        for move in plan.moves:
            assert move.transfer.points.sum() == 240 * 180

    def test_identity_reallocation_free(self, machine):
        old, _ = self._allocs()
        cost = CostModel.for_machine(machine)
        sizes = {i: (200, 200) for i in PAPER_WEIGHTS}
        plan = plan_redistribution(old, old, sizes, machine, cost)
        assert plan.overlap_fraction == 1.0
        assert plan.predicted_time == 0.0
        assert plan.measured_time == 0.0
        assert plan.network_bytes == 0.0

    def test_missing_size_raises(self, machine):
        old, new = self._allocs()
        cost = CostModel.for_machine(machine)
        with pytest.raises(KeyError):
            plan_redistribution(old, new, {3: (100, 100)}, machine, cost)

    def test_diffusion_beats_scratch_on_example(self, machine):
        cost = CostModel.for_machine(machine)
        sizes = {i: (300, 300) for i in range(1, 7)}
        weights2 = {3: 0.27, 5: 0.42, 6: 0.31}
        diff, scr = DiffusionStrategy(), ScratchStrategy()
        old = diff.reallocate(None, PAPER_WEIGHTS, GRID)
        d_new = diff.reallocate(old, weights2, GRID)
        s_new = scr.reallocate(old, weights2, GRID)
        d_plan = plan_redistribution(old, d_new, sizes, machine, cost)
        s_plan = plan_redistribution(old, s_new, sizes, machine, cost)
        assert d_plan.overlap_fraction > s_plan.overlap_fraction
        assert d_plan.hop_bytes_avg < s_plan.hop_bytes_avg
        assert d_plan.predicted_time < s_plan.predicted_time
        # Measured time on this single example is a near-tie (the rectangle
        # widths changed, so block boundaries shifted everywhere); the
        # decisive wins are statistical — see the Table IV benchmark.
        assert d_plan.measured_time < s_plan.measured_time * 1.15


class TestDynamicStrategy:
    def test_requires_nest_sizes(self, machine, predictor):
        dyn = DynamicStrategy(machine, CostModel.for_machine(machine), predictor)
        with pytest.raises(ValueError):
            dyn.reallocate(None, {1: 1.0}, GRID)

    def test_missing_size_key(self, machine, predictor):
        dyn = DynamicStrategy(machine, CostModel.for_machine(machine), predictor)
        with pytest.raises(KeyError):
            dyn.reallocate(None, {1: 1.0}, GRID, nest_sizes={2: (10, 10)})

    def test_records_history(self, machine, predictor):
        dyn = DynamicStrategy(machine, CostModel.for_machine(machine), predictor)
        sizes = {1: (300, 300), 2: (250, 250)}
        dyn.reallocate(None, {1: 0.6, 2: 0.4}, GRID, nest_sizes=sizes)
        assert len(dyn.history) == 1
        h = dyn.history[0]
        assert h.chosen in ("scratch", "diffusion")
        assert h.scratch_redist == 0.0  # no previous allocation

    def test_picks_minimum_predicted_total(self, machine, predictor):
        dyn = DynamicStrategy(machine, CostModel.for_machine(machine), predictor)
        sizes = {i: (280, 280) for i in range(1, 8)}
        a = dyn.reallocate(
            None, {1: 0.3, 2: 0.3, 3: 0.4}, GRID, nest_sizes=sizes
        )
        dyn.reallocate(a, {1: 0.3, 3: 0.3, 4: 0.4}, GRID, nest_sizes=sizes)
        h = dyn.history[-1]
        scratch = h.scratch_exec + h.scratch_redist
        diffusion = h.diffusion_exec + h.diffusion_redist
        if h.chosen == "scratch":
            assert scratch <= diffusion
        else:
            assert diffusion <= scratch


class TestProcessorReallocator:
    def test_first_step_no_plan(self, machine, predictor):
        r = ProcessorReallocator(machine, ScratchStrategy(), predictor)
        res = r.step({1: (300, 300)})
        assert res.plan is None and res.created == [1]

    def test_second_step_plans(self, machine, predictor):
        r = ProcessorReallocator(machine, DiffusionStrategy(), predictor)
        r.step({1: (300, 300), 2: (200, 200)})
        res = r.step({1: (300, 300), 3: (250, 250)})
        assert res.plan is not None
        assert res.retained == [1] and res.deleted == [2] and res.created == [3]
        assert res.plan.retained_nests == [1]

    def test_weights_sum_to_one(self, machine, predictor):
        r = ProcessorReallocator(machine, ScratchStrategy(), predictor)
        res = r.step({1: (300, 300), 2: (200, 200)})
        assert sum(res.weights.values()) == pytest.approx(1.0)

    def test_invalid_nest_size(self, machine, predictor):
        r = ProcessorReallocator(machine, ScratchStrategy(), predictor)
        with pytest.raises(ValueError):
            r.step({1: (0, 100)})

    def test_works_on_switched_machine(self, predictor):
        m = fist_cluster(256)
        r = ProcessorReallocator(m, DiffusionStrategy(), predictor)
        r.step({1: (300, 300), 2: (200, 200)})
        res = r.step({1: (300, 300), 3: (220, 220)})
        assert res.plan is not None and res.plan.measured_time > 0

    def test_allocation_always_tiles_grid(self, machine, predictor):
        r = ProcessorReallocator(machine, DiffusionStrategy(), predictor)
        rng = np.random.default_rng(0)
        nests, nid = {}, 0
        for _ in range(12):
            if nests and rng.uniform() < 0.4:
                del nests[list(nests)[int(rng.integers(len(nests)))]]
            while len(nests) < 2:
                nid += 1
                nests[nid] = (int(rng.integers(181, 362)), int(rng.integers(181, 362)))
            res = r.step(dict(nests))
            total = sum(rect.area for rect in res.allocation.rects.values())
            assert total == r.grid.nprocs


class TestRouteOnce:
    """Candidate costing prices nothing; the executed plan prices each
    retained nest with messages exactly once, by its busiest load alone:
    with no ledger and no sanitizer no per-link map is built, and a torus
    plan routes nothing."""

    def test_routes_csr_calls_per_point(self, predictor, monkeypatch):
        from repro.experiments import synthetic_workload
        from repro.mpisim import NetworkSimulator
        from repro.sanitize import NULL_SANITIZER, use_sanitizer
        from repro.topology import MACHINES, Torus3D

        machine = MACHINES["bgl-256"]
        cost = CostModel.for_machine(machine)
        dyn = DynamicStrategy(machine, cost, predictor)
        realloc = ProcessorReallocator(machine, dyn, predictor, cost)
        built: list[NetworkSimulator] = []
        priced: list[int] = []
        mapped: list[int] = []
        routed: list[int] = []
        init, routes_csr = NetworkSimulator.__init__, NetworkSimulator.routes_csr
        ring_busiest_load = Torus3D.ring_busiest_load
        ring_link_loads = Torus3D.ring_link_loads

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counting_routes(self, messages):
            routed.append(len(messages))
            return routes_csr(self, messages)

        def counting_busiest(self, src, dst, nbytes, order_idx=None):
            priced.append(len(src))
            return ring_busiest_load(self, src, dst, nbytes, order_idx)

        def counting_map(self, src, dst, nbytes, order_idx=None):
            mapped.append(len(src))
            return ring_link_loads(self, src, dst, nbytes, order_idx)

        monkeypatch.setattr(NetworkSimulator, "__init__", counting_init)
        monkeypatch.setattr(NetworkSimulator, "routes_csr", counting_routes)
        monkeypatch.setattr(Torus3D, "ring_busiest_load", counting_busiest)
        monkeypatch.setattr(Torus3D, "ring_link_loads", counting_map)
        moved = 0
        with use_sanitizer(NULL_SANITIZER):  # count the plan's pricing alone
            for nests in synthetic_workload(seed=3, n_steps=8).steps:
                old = realloc.allocation
                weights = predictor.weights(nests, realloc.grid.nprocs)
                dyn.reallocate(old, weights, realloc.grid, nest_sizes=dict(nests))
                assert built == [] and priced == []  # choosing prices nothing
                result = realloc.step(nests)
                nonempty = [
                    m for m in (result.plan.moves if result.plan else [])
                    if len(m.messages)
                ]
                assert built == []
                assert priced == [len(m.messages) for m in nonempty]
                moved += len(nonempty)
                priced.clear()
        assert moved > 0
        assert mapped == []
        assert routed == []


class TestOneMovePerPoint:
    """A point's candidates and its plan share one move map: each distinct
    move is built once, the plan executes the very moves the winner was
    priced with, and its sums read the moves' own hop-bytes and times."""

    def test_candidates_and_plan_share_each_move(self, predictor, monkeypatch):
        from repro.core import dynamic, redistribution
        from repro.experiments import synthetic_workload
        from repro.mpisim import MessageSet, hop_bytes
        from repro.sanitize import Sanitizer, use_sanitizer
        from repro.topology import MACHINES

        machine = MACHINES["bgl-256"]
        cost = CostModel.for_machine(machine)
        dyn = DynamicStrategy(machine, cost, predictor)
        realloc = ProcessorReallocator(machine, dyn, predictor, cost)
        built, priced = [], []
        real_transfer, real_nest_moves = (
            redistribution.transfer_matrix,
            dynamic.nest_moves,
        )

        def counting_transfer(old, new, px):
            built.append((old.proc_rect, new.proc_rect, new.nx, new.ny))
            return real_transfer(old, new, px)

        def recording_nest_moves(old, new, nest_sizes, machine, cost, moves=None):
            out = real_nest_moves(old, new, nest_sizes, machine, cost, moves)
            priced.append((old, new, out))
            return out

        monkeypatch.setattr(redistribution, "transfer_matrix", counting_transfer)
        monkeypatch.setattr(dynamic, "nest_moves", recording_nest_moves)
        san = Sanitizer()
        shared = total = 0
        with use_sanitizer(san):
            for nests in synthetic_workload(seed=3, n_steps=16).steps:
                built.clear()
                priced.clear()
                result = realloc.step(nests)
                plan = result.plan
                if plan is None:
                    assert built == [] and priced == []
                    continue
                # one build per distinct (nest, new rect, size) of the point
                (old, scratch, s_moves), (_, diffusion, d_moves) = priced
                distinct = {
                    (old.rects[m.nest_id], cand.rects[m.nest_id], m.nx, m.ny)
                    for cand, moves in ((scratch, s_moves), (diffusion, d_moves))
                    for m in moves
                }
                assert len(built) == len(set(built)) == len(distinct)
                assert set(built) == distinct
                shared += len(s_moves) + len(d_moves) - len(distinct)
                total += len(distinct)
                # the plan executes the winner's priced moves, and reads
                # their sums bit for bit
                choice = dyn.history[-1]
                winner = s_moves if choice.chosen == "scratch" else d_moves
                assert len(plan.moves) == len(winner)
                assert all(a is b for a, b in zip(plan.moves, winner))
                redist = (
                    choice.scratch_redist
                    if choice.chosen == "scratch"
                    else choice.diffusion_redist
                )
                assert plan.predicted_time == redist
                all_msgs = MessageSet.concat([m.messages for m in plan.moves])
                assert plan.hop_bytes_total == hop_bytes(all_msgs, machine.mapping)[0]
        assert total > 0 and shared > 0  # the candidates did share moves
        assert san.violations == []
        assert san.checks_run["plan.conservation"] > 0


class TestMetrics:
    def _metric(self, step, measured, exec_actual=10.0):
        return StepMetrics(
            step=step, n_nests=2, n_retained=1,
            predicted_redist=measured, measured_redist=measured,
            hop_bytes_avg=1.0, hop_bytes_total=1.0,
            overlap_fraction=0.5, exec_predicted=10.0, exec_actual=exec_actual,
        )

    def test_summarize_improvement(self):
        base = [self._metric(0, 4.0), self._metric(1, 6.0)]
        cand = [self._metric(0, 3.0), self._metric(1, 4.5)]
        assert summarize_improvement(base, cand) == pytest.approx(25.0)

    def test_total_actual(self):
        m = self._metric(0, 2.0, exec_actual=8.0)
        assert m.total_actual == 10.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            summarize_improvement([self._metric(0, 1.0)], [])

    def test_zero_baseline(self):
        base = [self._metric(0, 0.0)]
        cand = [self._metric(0, 0.0)]
        assert summarize_improvement(base, cand) == 0.0
