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
    execute_redistribution_with_retry,
    gather_nest,
    scatter_nest,
)
from repro.core.redistribution import nest_moves
from repro.grid import ProcessorGrid, Rect
from repro.mpisim import CostModel
from repro.sanitize import Sanitizer, use_sanitizer
from repro.topology import MACHINES
from repro.tree import build_huffman

GRID = ProcessorGrid(16, 16)
MACHINE = MACHINES["bgl-256"]  # the machine of GRID
COST = CostModel.for_machine(MACHINE)


def alloc_for(weights):
    return Allocation.from_tree(build_huffman(weights), GRID, weights)


def move_of(nest_id, old, new, nx, ny):
    """The planned move of ``nest_id`` at ``nx x ny`` from ``old`` to ``new``."""
    sizes = {nid: (nx, ny) for nid in old.rects}
    return next(m for m in nest_moves(old, new, sizes, MACHINE, COST) if m.nest_id == nest_id)


def random_field(nx, ny, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (ny, nx))


class TestRankStore:
    def test_scatter_get(self):
        alloc = alloc_for({1: 1.0})
        s = RankStore(GRID.nprocs)
        f = random_field(40, 24)
        scatter_nest(s, 1, f, alloc)
        rect = alloc.rect_of(1)
        blk, got = s.get(GRID.rank(rect.x0 + 2, rect.y0 + 1), 1)
        expected = alloc.decomposition(1, 40, 24).block_of(2, 1)
        assert got == expected
        assert np.array_equal(blk, f[expected.y0 : expected.y1, expected.x0 : expected.x1])

    def test_rank_range(self):
        # the allocation's grid has more ranks than the store
        alloc = alloc_for({1: 1.0})
        with pytest.raises(ValueError, match="ranks"):
            scatter_nest(RankStore(GRID.nprocs - 1), 1, random_field(8, 8), alloc)

    def test_missing_block(self):
        with pytest.raises(KeyError):
            RankStore(4).get(0, 9)
        alloc = alloc_for({1: 0.5, 2: 0.5})
        s = RankStore(GRID.nprocs)
        scatter_nest(s, 1, random_field(20, 20), alloc)
        outside = GRID.ranks_in(alloc.rect_of(2))[0]
        with pytest.raises(KeyError):
            s.get(int(outside), 1)

    def test_drop_nest(self):
        alloc = alloc_for({1: 0.5, 2: 0.5})
        s = RankStore(GRID.nprocs)
        scatter_nest(s, 1, random_field(20, 20), alloc)
        scatter_nest(s, 2, random_field(20, 20), alloc)
        assert s.drop_nest(1) == alloc.rect_of(1).area
        assert s.holders(1) == []
        assert s.drop_nest(1) == 0
        assert s.holders(2) == sorted(GRID.ranks_in(alloc.rect_of(2)).tolist())

    def test_memory_accounting(self):
        alloc = alloc_for({1: 0.5, 2: 0.5})
        s = RankStore(GRID.nprocs)
        scatter_nest(s, 1, random_field(30, 20), alloc)
        held = [s.get(r, 1)[0].nbytes for r in s.holders(1)]
        assert min(held) > 0 and sum(held) == 30 * 20 * 8
        with pytest.raises(KeyError):
            s.get(int(GRID.ranks_in(alloc.rect_of(2))[0]), 1)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RankStore(0)

    def test_write_through_get_view_is_gathered(self):
        alloc = alloc_for({1: 1.0})
        s = RankStore(GRID.nprocs)
        f = random_field(40, 40)
        scatter_nest(s, 1, f, alloc)
        blk, rect = s.get(s.holders(1)[5], 1)
        blk[:] = -1.0
        expected = f.copy()
        expected[rect.y0 : rect.y1, rect.x0 : rect.x1] = -1.0
        assert np.array_equal(gather_nest(s, 1, 40, 40), expected)


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
        # a dropped nest has no blocks left to gather
        alloc = alloc_for({1: 1.0})
        store = RankStore(GRID.nprocs)
        scatter_nest(store, 1, random_field(40, 40), alloc)
        store.drop_nest(1)
        with pytest.raises(ValueError):
            gather_nest(store, 1, 40, 40)

    def test_gather_rejects_another_size(self):
        alloc = alloc_for({1: 1.0})
        store = RankStore(GRID.nprocs)
        scatter_nest(store, 1, random_field(40, 30), alloc)
        for nx, ny in ((30, 40), (40, 31)):
            with pytest.raises(ValueError):
                gather_nest(store, 1, nx, ny)


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

    def test_rejects_a_store_without_the_old_layout(self):
        old = alloc_for({1: 0.3, 2: 0.3, 3: 0.4})
        new = DiffusionStrategy().reallocate(old, {1: 0.5, 3: 0.2, 4: 0.3}, GRID)
        assert old.rect_of(1) != new.rect_of(1)
        move = move_of(1, old, new, 50, 40)
        store = RankStore(GRID.nprocs)
        with pytest.raises(KeyError):  # no record at all
            execute_redistribution(store, move, old, new)
        scatter_nest(store, 1, random_field(50, 40), new)
        with pytest.raises(KeyError):  # held on another rectangle
            execute_redistribution(store, move, old, new)
        scatter_nest(store, 1, random_field(50, 41), old)
        with pytest.raises(KeyError):  # held at another size
            execute_redistribution(store, move, old, new)


class TestShapeKeepingMoveKeepsTheBuffer:
    """The slab layout is rect-relative, so a new rectangle of the old
    one's width and height holds every point where it already is: the
    move keeps the nest's buffer and copies nothing."""

    OLD = Rect(2, 3, 5, 4)

    @pytest.mark.parametrize("new_rect", [Rect(2, 3, 5, 4), Rect(9, 10, 5, 4)])
    @pytest.mark.parametrize("retry", [False, True])
    def test_same_and_translated_rectangle(self, new_rect, retry):
        old = Allocation(GRID, None, {1: self.OLD})
        new = Allocation(GRID, None, {1: new_rect})
        store = RankStore(GRID.nprocs)
        f = random_field(43, 29, seed=4)
        scatter_nest(store, 1, f, old)
        buf = store.nests[1].buf
        move = move_of(1, old, new, 43, 29)
        san = Sanitizer()
        with use_sanitizer(san):
            if retry:
                execute_redistribution_with_retry(store, move, old, new)
            else:
                execute_redistribution(store, move, old, new)
        assert store.nests[1].buf is buf
        assert store.nests[1].rect == new_rect
        assert san.checks_run["execute.conservation"] == 1
        assert san.violations == []
        assert np.array_equal(gather_nest(store, 1, 43, 29), f)
        assert set(store.holders(1)) == set(GRID.ranks_in(new_rect).tolist())
