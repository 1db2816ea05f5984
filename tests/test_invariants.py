"""Tests for the runtime invariant checks."""

import pytest

from repro.core import Allocation, DiffusionStrategy, plan_redistribution
from repro.core.invariants import (
    InvariantViolation,
    check_all,
    check_plan_conservation,
    check_tiling,
    check_tree_consistency,
)
from repro.grid import ProcessorGrid, Rect
from repro.mpisim import CostModel
from repro.topology import blue_gene_l
from repro.tree import build_huffman

GRID = ProcessorGrid(16, 16)


def good_allocation():
    w = {1: 0.4, 2: 0.6}
    return Allocation.from_tree(build_huffman(w), GRID, w)


class TestCheckTiling:
    def test_good(self):
        check_tiling(good_allocation())

    def test_empty_ok(self):
        check_tiling(Allocation.from_tree(None, GRID))

    def test_gap_detected(self):
        a = Allocation(GRID, None, {1: Rect(0, 0, 8, 16)})  # covers half
        with pytest.raises(InvariantViolation):
            check_tiling(a)

    def test_overlap_detected(self):
        # bypass Allocation's own constructor check via object surgery
        a = good_allocation()
        object.__setattr__(a, "rects", {1: Rect(0, 0, 9, 16), 2: Rect(8, 0, 8, 16)})
        with pytest.raises(InvariantViolation):
            check_tiling(a)


class TestCheckPlanConservation:
    def _plan(self):
        machine = blue_gene_l(256)
        cost = CostModel.for_machine(machine)
        strat = DiffusionStrategy()
        old = strat.reallocate(None, {1: 0.4, 2: 0.6}, GRID)
        new = strat.reallocate(old, {1: 0.7, 2: 0.3}, GRID)
        sizes = {1: (100, 100), 2: (120, 80)}
        return plan_redistribution(old, new, sizes, machine, cost), sizes

    def test_good(self):
        plan, sizes = self._plan()
        check_plan_conservation(plan, sizes)

    def test_wrong_sizes_detected(self):
        plan, sizes = self._plan()
        bad = {nid: (nx + 1, ny) for nid, (nx, ny) in sizes.items()}
        with pytest.raises(InvariantViolation):
            check_plan_conservation(plan, bad)


class TestCheckTreeConsistency:
    def test_good(self):
        check_tree_consistency(good_allocation())

    def test_rects_without_tree(self):
        a = Allocation(GRID, None, {1: Rect(0, 0, 16, 16)})
        with pytest.raises(InvariantViolation):
            check_tree_consistency(a)

    def test_mismatched_ids(self):
        a = good_allocation()
        object.__setattr__(a, "tree", build_huffman({1: 0.5, 9: 0.5}))
        with pytest.raises(InvariantViolation):
            check_tree_consistency(a)


class TestCheckAll:
    def test_full_pass(self):
        machine = blue_gene_l(256)
        cost = CostModel.for_machine(machine)
        strat = DiffusionStrategy()
        old = strat.reallocate(None, {1: 0.4, 2: 0.6}, GRID)
        new = strat.reallocate(old, {1: 0.7, 3: 0.3}, GRID)
        sizes = {1: (100, 100), 2: (90, 90), 3: (110, 70)}
        plan = plan_redistribution(old, new, sizes, machine, cost)
        check_all(new, plan, sizes)

    def test_plan_requires_sizes(self):
        machine = blue_gene_l(256)
        cost = CostModel.for_machine(machine)
        strat = DiffusionStrategy()
        old = strat.reallocate(None, {1: 1.0}, GRID)
        plan = plan_redistribution(old, old, {1: (50, 50)}, machine, cost)
        with pytest.raises(ValueError):
            check_all(old, plan, None)

    def test_allocation_only(self):
        check_all(good_allocation())


# ---------------------------------------------------------------------------
# Direct unit tests: every documented InvariantViolation message fires on a
# minimal violating input (previously these paths were only hit statistically
# through the e2e property tests).
# ---------------------------------------------------------------------------

from types import SimpleNamespace

import numpy as np

from repro.core.redistribution import NestMove, RedistributionPlan
from repro.grid.overlap import TransferMatrix
from repro.mpisim.alltoallv import MessageSet


def _surgery(allocation, **attrs):
    """Bypass the frozen dataclass to install an invalid field for testing."""
    for name, value in attrs.items():
        object.__setattr__(allocation, name, value)
    return allocation


def _transfer(points, total):
    n = len(points)
    return TransferMatrix(
        senders=np.zeros(n, dtype=np.int64),
        receivers=np.zeros(n, dtype=np.int64),
        points=np.asarray(points, dtype=np.int64),
        total_points=total,
    )


def _plan(moves=(), overlap=0.5, predicted=0.0, measured=0.0):
    return RedistributionPlan(
        moves=list(moves),
        predicted_time=predicted,
        measured_time=measured,
        hop_bytes_total=0.0,
        hop_bytes_avg=0.0,
        overlap_fraction=overlap,
        network_bytes=0.0,
    )


def _move(nest_id, transfer, nx, ny):
    empty = MessageSet(
        src=np.array([], dtype=np.int64),
        dst=np.array([], dtype=np.int64),
        nbytes=np.array([], dtype=np.int64),
    )
    return NestMove(
        nest_id=nest_id,
        nx=nx,
        ny=ny,
        transfer=transfer,
        messages=empty,
        hops=np.array([], dtype=np.int64),
        hop_bytes=0.0,
        predicted_time=0.0,
    )


class TestTilingMessages:
    def test_empty_rectangle_message(self):
        a = _surgery(Allocation(GRID, None, {}), rects={7: Rect(0, 0, 0, 0)})
        with pytest.raises(InvariantViolation, match="nest 7 has an empty rectangle"):
            check_tiling(a)

    def test_escaping_rectangle_message(self):
        a = _surgery(Allocation(GRID, None, {}), rects={3: Rect(10, 0, 16, 16)})
        with pytest.raises(InvariantViolation, match=r"nest 3: rectangle .* escapes grid"):
            check_tiling(a)

    def test_overlap_message_names_both_nests(self):
        a = _surgery(
            Allocation(GRID, None, {}),
            rects={1: Rect(0, 0, 9, 16), 2: Rect(8, 0, 8, 16)},
        )
        with pytest.raises(InvariantViolation, match="nests 1 and 2 overlap"):
            check_tiling(a)

    def test_coverage_message_counts_processors(self):
        a = Allocation(GRID, None, {1: Rect(0, 0, 8, 16)})
        with pytest.raises(
            InvariantViolation, match="rectangles cover 128 of 256 processors"
        ):
            check_tiling(a)


class TestPlanConservationMessages:
    def test_point_count_message(self):
        plan = _plan(moves=[_move(4, _transfer([3], total=3), 2, 2)])
        with pytest.raises(
            InvariantViolation, match="nest 4: transfer covers 3 of 4 points"
        ):
            check_plan_conservation(plan, {4: (2, 2)})

    def test_local_network_partition_message(self):
        # points sum to nx*ny but the local/network split does not partition;
        # only reachable through an inconsistent transfer, so stub one.
        fake_transfer = SimpleNamespace(
            points=np.array([4]), local_points=1, network_points=2
        )
        plan = _plan(moves=[SimpleNamespace(nest_id=9, transfer=fake_transfer)])
        with pytest.raises(
            InvariantViolation, match="nest 9: local\\+network points do not partition"
        ):
            check_plan_conservation(plan, {9: (2, 2)})

    def test_overlap_fraction_range_message(self):
        with pytest.raises(
            InvariantViolation, match=r"overlap fraction 1.5 outside \[0, 1\]"
        ):
            check_plan_conservation(_plan(overlap=1.5), {})

    def test_negative_time_message(self):
        with pytest.raises(InvariantViolation, match="negative redistribution time"):
            check_plan_conservation(_plan(measured=-1e-9), {})

    def test_negative_predicted_time_message(self):
        with pytest.raises(InvariantViolation, match="negative redistribution time"):
            check_plan_conservation(_plan(predicted=-0.5), {})


class TestTreeConsistencyMessages:
    def test_rects_without_tree_message(self):
        a = Allocation(GRID, None, {1: Rect(0, 0, 16, 16)})
        with pytest.raises(
            InvariantViolation, match="allocation has rectangles but no tree"
        ):
            check_tree_consistency(a)

    def test_invalid_structure_message(self):
        tree = build_huffman({1: 0.5, 2: 0.5})
        tree.left.parent = None  # break a parent pointer
        a = _surgery(good_allocation(), tree=tree)
        with pytest.raises(InvariantViolation, match="tree structure invalid"):
            check_tree_consistency(a)

    def test_id_mismatch_message(self):
        a = _surgery(good_allocation(), tree=build_huffman({1: 0.5, 9: 0.5}))
        with pytest.raises(
            InvariantViolation, match=r"tree nests \[1, 9\] != allocated nests \[1, 2\]"
        ):
            check_tree_consistency(a)
