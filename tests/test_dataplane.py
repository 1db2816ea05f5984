"""Tests for the executable redistribution data plane.

The central invariant: after scatter → any chain of reallocations with
executed redistributions → gather, the nest field is bit-for-bit intact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Allocation, DiffusionStrategy, ScratchStrategy
from repro.core.dataplane import (
    RankStore,
    execute_redistribution,
    gather_nest,
    scatter_nest,
)
from repro.core.redistribution import nest_moves
from repro.grid import ProcessorGrid, Rect
from repro.mpisim import CostModel
from repro.topology import MACHINES
from repro.tree import build_huffman

GRID = ProcessorGrid(16, 16)
COST = CostModel.for_machine(MACHINES["bgl-256"])  # the machine of GRID


def alloc_for(weights):
    return Allocation.from_tree(build_huffman(weights), GRID, weights)


def move_of(nest_id, old, new, nx, ny):
    """The planned move of ``nest_id`` at ``nx x ny`` from ``old`` to ``new``."""
    sizes = {nid: (nx, ny) for nid in old.rects}
    return next(m for m in nest_moves(old, new, sizes, COST) if m.nest_id == nest_id)


def random_field(nx, ny, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (ny, nx))


class TestRankStore:
    def test_put_get(self):
        s = RankStore(GRID.nprocs)
        blk = np.ones((3, 4))
        s.put(5, 1, blk, Rect(0, 0, 4, 3))
        got, rect = s.get(5, 1)
        assert np.array_equal(got, blk) and rect == Rect(0, 0, 4, 3)

    def test_shape_mismatch(self):
        s = RankStore(4)
        with pytest.raises(ValueError):
            s.put(0, 1, np.ones((3, 3)), Rect(0, 0, 4, 3))

    def test_rank_range(self):
        s = RankStore(4)
        with pytest.raises(ValueError):
            s.put(4, 1, np.ones((1, 1)), Rect(0, 0, 1, 1))

    def test_missing_block(self):
        with pytest.raises(KeyError):
            RankStore(4).get(0, 9)

    def test_drop_nest(self):
        s = RankStore(4)
        s.put(0, 1, np.ones((1, 1)), Rect(0, 0, 1, 1))
        s.put(1, 1, np.ones((1, 1)), Rect(1, 0, 1, 1))
        assert s.drop_nest(1) == 2
        assert s.holders(1) == []

    def test_memory_accounting(self):
        s = RankStore(4)
        s.put(0, 1, np.ones((2, 2)), Rect(0, 0, 2, 2))
        assert s.memory_bytes(0) == 4 * 8
        assert s.memory_bytes(3) == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RankStore(0)


class TestScatterGather:
    def test_roundtrip(self):
        alloc = alloc_for({1: 0.4, 2: 0.6})
        store = RankStore(GRID.nprocs)
        f = random_field(91, 77)
        scatter_nest(store, 1, f, alloc)
        assert np.array_equal(gather_nest(store, 1, 91, 77), f)

    def test_blocks_land_on_allocated_ranks(self):
        alloc = alloc_for({1: 0.4, 2: 0.6})
        store = RankStore(GRID.nprocs)
        scatter_nest(store, 1, random_field(50, 50), alloc)
        holders = set(store.holders(1))
        expected = set(GRID.ranks_in(alloc.rect_of(1)).tolist())
        assert holders == expected

    def test_gather_detects_missing_block(self):
        alloc = alloc_for({1: 1.0})
        store = RankStore(GRID.nprocs)
        scatter_nest(store, 1, random_field(40, 40), alloc)
        victim = store.holders(1)[3]
        del store.blocks[victim][1]
        with pytest.raises(ValueError):
            gather_nest(store, 1, 40, 40)

    def test_gather_detects_overlapping_blocks(self):
        store = RankStore(4)
        store.put(0, 1, np.ones((2, 4)), Rect(0, 0, 4, 2))
        store.put(1, 1, np.ones((2, 4)), Rect(0, 1, 4, 2))
        with pytest.raises(ValueError):
            gather_nest(store, 1, 4, 4)


class TestExecuteRedistribution:
    def test_field_survives_reallocation(self):
        old = alloc_for({1: 0.3, 2: 0.3, 3: 0.4})
        new_weights = {1: 0.5, 3: 0.2, 4: 0.3}
        new = DiffusionStrategy().reallocate(old, new_weights, GRID)
        store = RankStore(GRID.nprocs)
        f = random_field(123, 97)
        scatter_nest(store, 1, f, old)
        move = move_of(1, old, new, 123, 97)
        execute_redistribution(store, move, old, new)
        assert int(move.transfer.points.sum()) == 123 * 97
        assert np.array_equal(gather_nest(store, 1, 123, 97), f)
        # blocks now live exactly on the new rectangle's ranks
        assert set(store.holders(1)) == set(
            GRID.ranks_in(new.rect_of(1)).tolist()
        )

    def test_chain_of_redistributions(self):
        weights_chain = [
            {1: 0.3, 2: 0.7},
            {1: 0.6, 3: 0.4},
            {1: 0.2, 3: 0.3, 4: 0.5},
            {1: 1.0},
        ]
        strat = ScratchStrategy()
        allocs = []
        prev = None
        for w in weights_chain:
            prev = strat.reallocate(prev, w, GRID)
            allocs.append(prev)
        store = RankStore(GRID.nprocs)
        f = random_field(200, 150, seed=3)
        scatter_nest(store, 1, f, allocs[0])
        for old, new in zip(allocs, allocs[1:]):
            execute_redistribution(store, move_of(1, old, new, 200, 150), old, new)
        assert np.array_equal(gather_nest(store, 1, 200, 150), f)

    def test_identity_redistribution(self):
        alloc = alloc_for({1: 1.0})
        store = RankStore(GRID.nprocs)
        f = random_field(64, 64)
        scatter_nest(store, 1, f, alloc)
        move = move_of(1, alloc, alloc, 64, 64)
        execute_redistribution(store, move, alloc, alloc)
        assert move.transfer.network_points == 0
        assert np.array_equal(gather_nest(store, 1, 64, 64), f)

    def test_multiple_nests_independent(self):
        old = alloc_for({1: 0.5, 2: 0.5})
        new = DiffusionStrategy().reallocate(old, {1: 0.7, 2: 0.3}, GRID)
        store = RankStore(GRID.nprocs)
        f1, f2 = random_field(80, 60, 1), random_field(66, 99, 2)
        scatter_nest(store, 1, f1, old)
        scatter_nest(store, 2, f2, old)
        execute_redistribution(store, move_of(1, old, new, 80, 60), old, new)
        execute_redistribution(store, move_of(2, old, new, 66, 99), old, new)
        assert np.array_equal(gather_nest(store, 1, 80, 60), f1)
        assert np.array_equal(gather_nest(store, 2, 66, 99), f2)

    @given(
        st.integers(10, 120),
        st.integers(10, 120),
        st.floats(0.1, 0.9),
        st.floats(0.1, 0.9),
        st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, nx, ny, w1, w2, seed):
        old = alloc_for({1: w1, 2: 1 - w1})
        new = alloc_for({1: w2, 2: 1 - w2})
        store = RankStore(GRID.nprocs)
        f = random_field(nx, ny, seed)
        scatter_nest(store, 1, f, old)
        execute_redistribution(store, move_of(1, old, new, nx, ny), old, new)
        assert np.array_equal(gather_nest(store, 1, nx, ny), f)
