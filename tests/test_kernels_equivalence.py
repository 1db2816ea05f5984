"""Property-based equivalence: the shipped kernels against the scalar oracles.

Every hot path with a vectorised implementation keeps its original
scalar implementation beside it as a ``*_reference`` oracle — a test-only
specification that shipped code never calls.  These tests drive both over
randomized inputs — grids, nest sets, message sets, fault masks, degraded
split-file sets, ``qcloudinfo`` records, parent fields and nest ROIs — and
demand the outputs match:
bit-for-bit (for NNC, the very same row indices) wherever the
arithmetic is order-independent (integer-valued byte counts), and to
1e-12 relative tolerance for the float aggregates whose summation order
legitimately differs (batched QCLOUD sums).  Whole pipelines (plans, the
stateful churn run, full PDA) get the oracles swapped in through existing
seams: a link state on a :class:`ReferenceSimulator`, and
``aggregate_summaries`` patched to its oracle.  See
``docs/performance.md``.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    NNCConfig,
    QcloudInfo,
    SplitBatch,
    SplitFile,
    count_distance_evaluations,
    nearest_neighbour_clustering,
    parallel_data_analysis,
)
from repro.analysis.nnc import _distance_ok, _nearest_neighbour_clustering_reference
from repro.analysis.pda import (
    OLR_THRESHOLD,
    aggregate_summaries,
    aggregate_summaries_reference,
)
from repro.core import Allocation, plan_redistribution
from repro.core.dataplane import (
    RankStore,
    _move_blocks_reference,
    _scatter_nest_reference,
    execute_redistribution,
    gather_nest,
    scatter_nest,
)
from repro.core.redistribution import nest_moves
from repro.grid import ProcessorGrid, Rect
from repro.grid.block import BlockDecomposition, split_evenly
from repro.grid.overlap import _transfer_matrix_reference, transfer_matrix
from repro.mpisim import CostModel, MessageSet, NetworkSimulator
from repro.mpisim.netsim import LinkLoadState
from repro.perfmodel import ExecTimePredictor, ExecutionOracle, ProfileTable
from repro.topology import MACHINES, Mesh3D, RandomMapping, Torus3D, blue_gene_l
from repro.tree import build_huffman
from repro.util.rng import make_rng
from repro.wrf import Nest, NestTracker, WrfLikeModel, detect_nests, mumbai_2005_scenario

MACHINE_NAMES = ("bgl-256", "fist-256")  # one torus, one switched network
#: every shape the link accounting prices: the BG/L tori from 64 to 4096
#: ranks, odd and degenerate tori and meshes under seeded permutation
#: mappings, and the switched network
WIRES = {
    "bgl-64": blue_gene_l(64).mapping,
    **{name: MACHINES[name].mapping for name in ("bgl-256", "bgl-1024", "bgl-4096")},
    "fist-256": MACHINES["fist-256"].mapping,
    "torus-3x5x7": RandomMapping(Torus3D((3, 5, 7)), seed=1),
    "torus-2x1x3": RandomMapping(Torus3D((2, 1, 3)), seed=2),
    "mesh-4x3x5": RandomMapping(Mesh3D((4, 3, 5)), seed=3),
    "mesh-8x1x1": RandomMapping(Mesh3D((8, 1, 1)), seed=4),
}
#: fresh tori and meshes, whose node coordinate table is not built yet
FRESH_TORI = {
    "bgl-256": lambda: blue_gene_l(256).mapping,
    "torus-2x1x3": lambda: RandomMapping(Torus3D((2, 1, 3)), seed=2),
    "mesh-8x1x1": lambda: RandomMapping(Mesh3D((8, 1, 1)), seed=4),
}
GRID = ProcessorGrid(16, 16)  # matches the 256-rank machines
PREDICTOR = ExecTimePredictor(ProfileTable(ExecutionOracle()))


class ReferenceSimulator(NetworkSimulator):
    """A simulator whose every accounting entry point runs the oracles."""

    link_loads = NetworkSimulator._link_loads_reference
    flow_time = NetworkSimulator._flow_time_reference

    def bottleneck_time(self, messages, include_floor=True):
        return self._bottleneck_time_reference(messages, include_floor)

    def busiest_link_load(self, messages):
        """The busiest link's load (what the sanitizer holds the per-link
        map's maximum to) from the oracle's dict."""
        return max(self._link_loads_reference(messages).values(), default=0.0)

    def _link_load_arrays(self, messages):
        """Per-link loads (what ``LinkLoadState`` prices its charges with)
        from the oracle's dict, as sorted parallel arrays."""
        ref = self._link_loads_reference(messages)
        links = np.fromiter(sorted(ref), dtype=np.int64, count=len(ref))
        vals = np.fromiter(
            (ref[int(link)] for link in links), dtype=np.float64, count=len(ref)
        )
        return links, vals


def busiest_of(simulator, messages):
    """The busiest-link answer of a link state charged with ``messages``."""
    state = LinkLoadState(simulator)
    state.update(0, messages)
    return state.busiest_link_contributions()


def sim_pair(mapping, adaptive):
    topology = mapping.topology
    cost = CostModel(alpha=topology.link_latency, beta=1.0 / topology.link_bandwidth)
    vec = NetworkSimulator(mapping, cost, adaptive_routing=adaptive)
    ref = ReferenceSimulator(mapping, cost, adaptive_routing=adaptive)
    return vec, ref


def make_sim_pair(name, adaptive):
    machine = MACHINES[name]
    return (machine, *sim_pair(machine.mapping, adaptive))


def draw_messages(data, nranks, min_n=0, max_n=60):
    n = data.draw(st.integers(min_n, max_n), label="n_messages")
    src = data.draw(
        st.lists(st.integers(0, nranks - 1), min_size=n, max_size=n), label="src"
    )
    # dst = src + a non-zero offset: MessageSet forbids self-messages
    offs = data.draw(
        st.lists(st.integers(1, nranks - 1), min_size=n, max_size=n),
        label="dst_offsets",
    )
    words = data.draw(
        st.lists(st.integers(1, 512), min_size=n, max_size=n), label="words"
    )
    src_arr = np.asarray(src, dtype=np.int64)
    return MessageSet(
        src=src_arr,
        dst=(src_arr + np.asarray(offs, dtype=np.int64)) % nranks,
        nbytes=np.asarray(words, dtype=np.float64) * 8.0,
    )


def empty_messages():
    return MessageSet(
        src=np.empty(0, dtype=np.int64),
        dst=np.empty(0, dtype=np.int64),
        nbytes=np.empty(0, dtype=np.float64),
    )


class TestNetsimEquivalence:
    """Link accounting is bit-exact: the byte counts are integer-valued
    float64, so per-link sums match in any accumulation order."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_link_accounting_matches_reference(self, data):
        name = data.draw(st.sampled_from(sorted(WIRES)), label="wire")
        adaptive = data.draw(st.booleans(), label="adaptive")
        mapping = WIRES[name]
        vec, ref = sim_pair(mapping, adaptive)
        msgs = draw_messages(data, mapping.nranks, min_n=1)

        # Random fault masks: degraded links (drawn from links actually
        # used) and straggler ranks, mirrored into both simulators.
        links = sorted(ref.link_loads(msgs))
        if links:
            faulty = data.draw(
                st.lists(st.sampled_from(links), max_size=3, unique=True),
                label="faulty_links",
            )
            for link in faulty:
                vec.set_link_fault(link, 0.5)
                ref.set_link_fault(link, 0.5)
        slow = data.draw(
            st.lists(
                st.integers(0, mapping.nranks - 1),
                max_size=3,
                unique=True,
            ),
            label="stragglers",
        )
        for rank in slow:
            vec.set_rank_slowdown(rank, 2.5)
            ref.set_rank_slowdown(rank, 2.5)

        assert vec.link_loads(msgs) == ref.link_loads(msgs)
        assert busiest_of(vec, msgs) == ref._busiest_link_contributions_reference(msgs)
        assert vec.bottleneck_time(msgs) == ref.bottleneck_time(msgs)
        assert vec.flow_time(msgs) == ref.flow_time(msgs)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_stragglers_the_messages_touch(self, data):
        """Slowed ranks drawn from the messages' own endpoints: each scales
        its slot of the endpoint tally's rank window, which seldom starts
        at rank 0."""
        mapping = WIRES[data.draw(st.sampled_from(sorted(WIRES)), label="wire")]
        vec, ref = sim_pair(mapping, adaptive=False)
        msgs = draw_messages(data, mapping.nranks, min_n=1)
        touched = sorted(set(msgs.src.tolist()) | set(msgs.dst.tolist()))
        slow = data.draw(
            st.lists(st.sampled_from(touched), min_size=1, max_size=3, unique=True),
            label="stragglers",
        )
        for rank in slow:
            vec.set_rank_slowdown(rank, 2.5)
            ref.set_rank_slowdown(rank, 2.5)
        assert vec.bottleneck_time(msgs) == ref.bottleneck_time(msgs)
        assert vec.flow_time(msgs) == ref.flow_time(msgs)

    def test_wrapping_interval_loads_the_links_it_crosses(self):
        """On an 8-ring, x = 6 -> x = 1 goes up through the wrap: the +x
        links leaving x = 6, 7 and 0, and nothing else."""
        topology = Torus3D((8, 1, 1))
        mapping = RandomMapping(topology, seed=0)
        rank_of = {int(node): rank for rank, node in enumerate(mapping.table)}
        msgs = MessageSet(
            src=np.array([rank_of[6]]), dst=np.array([rank_of[1]]),
            nbytes=np.array([64.0]),
        )
        vec, ref = sim_pair(mapping, adaptive=False)
        plus_x = {node * 6: 64.0 for node in (6, 7, 0)}
        assert vec.link_loads(msgs) == ref.link_loads(msgs) == plus_x
        assert topology.ring_link_loads([6], [1], [64.0])[0].tolist() == [0, 36, 42]
        for link in range(topology.nlinks):
            crosses = bool(topology.ring_crossings([6], [1], link)[0])
            assert crosses is (link in plus_x)

    def test_empty_message_set(self):
        for name in MACHINE_NAMES:
            _machine, vec, ref = make_sim_pair(name, adaptive=False)
            msgs = empty_messages()
            assert vec.link_loads(msgs) == ref.link_loads(msgs) == {}
            assert busiest_of(vec, msgs) == (
                ref._busiest_link_contributions_reference(msgs)
            ) == (-1, 0.0, {})
            assert vec.bottleneck_time(msgs) == ref.bottleneck_time(msgs)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_table_building_and_later_calls_match_reference(self, data):
        """On a fresh torus the first call builds the coordinate table and
        a later one over overlapping pairs reads it; both reproduce the
        oracle exactly."""
        name = data.draw(st.sampled_from(sorted(FRESH_TORI)), label="wire")
        mapping = FRESH_TORI[name]()
        vec, ref = sim_pair(mapping, data.draw(st.booleans(), label="adaptive"))
        first = draw_messages(data, mapping.nranks, min_n=1, max_n=30)
        second = draw_messages(data, mapping.nranks, min_n=1, max_n=30)
        both = MessageSet.concat([first, second])
        assert mapping.topology._xyz is None
        assert vec.link_loads(first) == ref.link_loads(first)
        assert mapping.topology._xyz is not None
        assert vec.link_loads(both) == ref.link_loads(both)
        assert vec.bottleneck_time(both) == ref.bottleneck_time(both)


def draw_allocation(data, label, id_pool=range(1, 10)):
    ids = data.draw(
        st.lists(st.sampled_from(list(id_pool)), min_size=1, max_size=5, unique=True),
        label=f"{label}_ids",
    )
    weights = {
        nid: 1.0
        + data.draw(st.integers(0, 12), label=f"{label}_w{nid}")
        for nid in ids
    }
    return Allocation.from_tree(build_huffman(weights), GRID, weights), weights


def draw_rect(data, label, x_range, py):
    """A processor rectangle inside columns ``x_range`` and rows ``[0, py)``."""
    lo, hi = x_range
    w = data.draw(st.integers(1, hi - lo), label=f"{label}_w")
    h = data.draw(st.integers(1, py), label=f"{label}_h")
    x0 = data.draw(st.integers(lo, hi - w), label=f"{label}_x0")
    y0 = data.draw(st.integers(0, py - h), label=f"{label}_y0")
    return Rect(x0, y0, w, h)


class TestTransferMatrixEquivalence:
    """The one-walk-per-axis kernel against the union1d/searchsorted merge
    with its duplicate-pair group-by: same entries, order and dtypes."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, data):
        layout = data.draw(
            st.sampled_from(["random", "identical", "disjoint"]), label="layout"
        )
        px = data.draw(st.integers(2 if layout == "disjoint" else 1, 64), label="px")
        py = data.draw(st.integers(1, 64), label="py")
        if layout == "disjoint":  # old left of a column cut, new right of it
            cut = data.draw(st.integers(1, px - 1), label="cut")
            old_rect = draw_rect(data, "old", (0, cut), py)
            new_rect = draw_rect(data, "new", (cut, px), py)
        else:
            old_rect = draw_rect(data, "old", (0, px), py)
            new_rect = (
                old_rect
                if layout == "identical"
                else draw_rect(data, "new", (0, px), py)
            )
        # small sides (1x1 nests included) leave zero-width blocks on
        # rectangles wider or taller than the nest
        side = st.one_of(st.integers(1, 8), st.integers(1, 400))
        nx = data.draw(side, label="nx")
        ny = data.draw(side, label="ny")
        old = BlockDecomposition(nx, ny, old_rect)
        new = BlockDecomposition(nx, ny, new_rect)

        got = transfer_matrix(old, new, px)
        want = _transfer_matrix_reference(old, new, px)

        for name in ("senders", "receivers", "points"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype, name
            assert np.array_equal(g, w), name
        assert got.total_points == want.total_points == nx * ny
        # no (sender, receiver) pair repeats, so the kernel needs no group-by
        pairs = set(zip(got.senders.tolist(), got.receivers.tolist()))
        assert len(pairs) == len(got.senders)


class TestRedistributionPlanEquivalence:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_plan_matches_reference(self, data):
        old, w_old = draw_allocation(data, "old")
        new, w_new = draw_allocation(data, "new")
        sizes = {
            nid: (
                data.draw(st.integers(6, 48), label=f"nx{nid}"),
                data.draw(st.integers(6, 48), label=f"ny{nid}"),
            )
            for nid in set(w_old) | set(w_new)
        }
        machine = MACHINES["bgl-256"]
        cost = CostModel.for_machine(machine)

        plan_v = plan_redistribution(old, new, sizes, machine, cost)
        plan_r = plan_redistribution(
            old,
            new,
            sizes,
            machine,
            cost,
            link_state=LinkLoadState(ReferenceSimulator(machine.mapping, cost)),
        )

        assert plan_v.hop_bytes_total == plan_r.hop_bytes_total
        assert plan_v.hop_bytes_avg == plan_r.hop_bytes_avg
        assert plan_v.predicted_time == plan_r.predicted_time
        assert plan_v.measured_time == plan_r.measured_time
        assert plan_v.network_bytes == plan_r.network_bytes
        assert plan_v.overlap_fraction == plan_r.overlap_fraction
        assert len(plan_v.moves) == len(plan_r.moves)
        for mv, mr in zip(plan_v.moves, plan_r.moves):
            assert mv.nest_id == mr.nest_id
            assert np.array_equal(mv.messages.src, mr.messages.src)
            assert np.array_equal(mv.messages.dst, mr.messages.dst)
            assert np.array_equal(mv.messages.nbytes, mr.messages.nbytes)


class TestCandidateCostEquivalence:
    """The dynamic strategy costs its candidates by the §IV-C1 prediction
    alone; the specification is each candidate's full plan."""

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_prediction_matches_full_plans(self, data):
        from repro.core import DiffusionStrategy, ScratchStrategy
        from repro.core.dynamic import predict_candidate_costs, predicted_exec_time

        name = data.draw(st.sampled_from(MACHINE_NAMES), label="machine")
        machine = MACHINES[name]
        cost = CostModel.for_machine(machine)
        old, w_old = draw_allocation(data, "old")
        # churn: ids drawn from the same pool survive, the rest die or are born
        _, weights = draw_allocation(data, "new")
        sizes = {
            nid: (
                data.draw(st.integers(6, 48), label=f"nx{nid}"),
                data.draw(st.integers(6, 48), label=f"ny{nid}"),
            )
            for nid in set(w_old) | set(weights)
        }

        got = predict_candidate_costs(
            old, weights, GRID, sizes, machine, cost, PREDICTOR
        )

        scratch = ScratchStrategy().reallocate(old, weights, GRID)
        diffusion = DiffusionStrategy().reallocate(old, weights, GRID)
        s_redist = plan_redistribution(old, scratch, sizes, machine, cost).predicted_time
        d_redist = plan_redistribution(
            old, diffusion, sizes, machine, cost
        ).predicted_time
        s_exec = predicted_exec_time(PREDICTOR, scratch, sizes)
        d_exec = predicted_exec_time(PREDICTOR, diffusion, sizes)
        chosen = "scratch" if s_exec + s_redist < d_exec + d_redist else "diffusion"
        assert got.choice.scratch_redist == s_redist
        assert got.choice.diffusion_redist == d_redist
        assert got.choice.chosen == chosen
        assert got.scratch.rects == scratch.rects
        assert got.diffusion.rects == diffusion.rects


def assert_store_matches(store, blocks, nid, field):
    """Every holder's ``get`` view and rectangle equal the oracle's blocks
    bit for bit, and both the shipped gather and the oracle's blocks
    reassemble ``field``."""
    ny, nx = field.shape
    assert store.holders(nid) == sorted(blocks)
    assembled = np.full((ny, nx), np.nan)
    for rank, (block, rect) in blocks.items():
        got, got_rect = store.get(rank, nid)
        assert got_rect == rect
        assert np.array_equal(got, block)
        assembled[rect.y0 : rect.y1, rect.x0 : rect.x1] = block
    assert np.array_equal(assembled, field)
    assert np.array_equal(gather_nest(store, nid, nx, ny), field)


class TestDataplaneEquivalence:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_store_contents_match_reference(self, data):
        """A scatter, then a chain of 2-4 moves over freshly drawn
        allocations, through the shipped path and through the per-block
        oracles.  Before some moves the nest is regridded (dropped and
        scattered at a new size, as the stepper does).  After every step
        the store matches the oracles' blocks bit for bit."""
        old, w_old = draw_allocation(data, "a0")
        nid = next(iter(w_old))
        machine = MACHINES["bgl-256"]
        cost = CostModel.for_machine(machine)
        rng = make_rng(data.draw(st.integers(0, 2**20), label="seed"))
        # sides from 1: the layouts meet zero-width blocks
        nx = data.draw(st.integers(1, 60), label="nx0")
        ny = data.draw(st.integers(1, 60), label="ny0")
        field = rng.uniform(0.0, 1.0, (ny, nx))
        store = RankStore(GRID.nprocs)
        scatter_nest(store, nid, field, old)
        blocks = _scatter_nest_reference(nid, field, old)
        assert_store_matches(store, blocks, nid, field)

        for k in range(1, data.draw(st.integers(2, 4), label="moves") + 1):
            if data.draw(st.booleans(), label=f"regrid{k}"):
                nx = data.draw(st.integers(1, 60), label=f"nx{k}")
                ny = data.draw(st.integers(1, 60), label=f"ny{k}")
                field = rng.uniform(0.0, 1.0, (ny, nx))
                store.drop_nest(nid)
                scatter_nest(store, nid, field, old)
                blocks = _scatter_nest_reference(nid, field, old)
                assert_store_matches(store, blocks, nid, field)
            others = data.draw(st.sets(st.integers(1, 9), max_size=4), label=f"ids{k}")
            w_new = {
                n: 1.0 + data.draw(st.integers(0, 12), label=f"w{k}_{n}")
                for n in sorted(others | {nid})
            }
            new = Allocation.from_tree(build_huffman(w_new), GRID, w_new)
            sizes = {n: (nx, ny) for n in old.rects}
            move = next(
                m for m in nest_moves(old, new, sizes, machine, cost) if m.nest_id == nid
            )
            execute_redistribution(store, move, old, new)
            blocks = _move_blocks_reference(
                blocks,
                nid,
                old,
                new,
                old.decomposition(nid, nx, ny),
                new.decomposition(nid, nx, ny),
            )
            assert_store_matches(store, blocks, nid, field)
            old = new


def draw_roi_axis(data, label, size):
    """One ROI side inside ``[0, size)``: from the near edge, to the far
    edge, spanning the axis, or anywhere."""
    where = data.draw(st.sampled_from(["near", "far", "span", "any"]), label=f"{label}_at")
    if where == "span":
        return 0, size
    n = data.draw(st.integers(1, size), label=f"{label}_n")
    if where == "near":
        return 0, n
    if where == "far":
        return size - n, n
    return data.draw(st.integers(0, size - n), label=f"{label}_0"), n


class TestInterpolationEquivalence:
    """The regrid at parent-row resolution against the four-corner oracle:
    same values, signs and dtype, bit for bit."""

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, data):
        side = st.one_of(st.just(1), st.integers(1, 40))
        ph = data.draw(side, label="ph")
        pw = data.draw(side, label="pw")
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        rng = make_rng(data.draw(st.integers(0, 2**20), label="seed"))
        parent = rng.standard_normal((ph, pw)).astype(dtype)
        # signed zeros: a -0.0 corner must keep its sign through both paths
        parent[rng.uniform(size=(ph, pw)) < 0.1] = -0.0
        parent[rng.uniform(size=(ph, pw)) < 0.1] = 0.0
        x0, w = draw_roi_axis(data, "x", pw)
        y0, h = draw_roi_axis(data, "y", ph)
        nest = Nest(1, Rect(x0, y0, w, h), data.draw(st.integers(1, 5), label="r"))

        got = nest.interpolate_from_parent(parent)
        want = nest._interpolate_from_parent_reference(parent)

        assert got.dtype == want.dtype
        assert got.shape == want.shape == (nest.ny, nest.nx)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def draw_split_batch(data):
    """A randomized sim grid of split files with missing and corrupt tiles.

    Corrupt tiles arise both ways a batch gets them: a non-finite value in
    the fields themselves (as a batch read back from disk has) and a
    damaged private copy (as the fault injector makes, here sometimes
    finite, so the copy must stand in for the field).
    """
    px = data.draw(st.integers(1, 4), label="px")
    py = data.draw(st.integers(1, 4), label="py")
    nx = data.draw(st.integers(px, 36), label="domain_nx")
    ny = data.draw(st.integers(py, 36), label="domain_ny")
    seed = data.draw(st.integers(0, 2**20), label="field_seed")
    rng = make_rng(seed)
    xb = tuple(split_evenly(nx, px).tolist())
    yb = tuple(split_evenly(ny, py).tolist())
    n_files = px * py
    tiles = st.lists(st.integers(0, n_files - 1), max_size=2, unique=True)
    missing = data.draw(tiles, label="missing")
    corrupt = data.draw(tiles, label="corrupt")
    damaged = data.draw(tiles, label="damaged")
    qcloud = rng.uniform(0.0, 5.0, (ny, nx))
    olr = rng.uniform(100.0, 300.0, (ny, nx))
    for idx in corrupt:
        by, bx = divmod(idx, px)
        olr[yb[by], xb[bx]] = np.inf
    copies = {}
    for idx in damaged:
        by, bx = divmod(idx, px)
        shape = (yb[by + 1] - yb[by], xb[bx + 1] - xb[bx])
        q = rng.uniform(0.0, 5.0, shape)
        if data.draw(st.booleans(), label=f"poison_{idx}"):
            q[0, 0] = np.nan
        copies[idx] = (q, rng.uniform(100.0, 300.0, shape))
    lost = np.isin(np.arange(n_files), missing)
    return SplitBatch(qcloud, olr, xb, yb, lost, copies), ProcessorGrid(px, py)


class TestPDAEquivalence:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_pda_matches_reference(self, data):
        files, sim_grid = draw_split_batch(data)
        n_analysis = data.draw(
            st.integers(1, sim_grid.nprocs), label="n_analysis"
        )

        def run():
            return parallel_data_analysis(files, sim_grid, n_analysis)

        rv = run()
        with mock.patch(
            "repro.analysis.pda.aggregate_summaries", aggregate_summaries_reference
        ):
            rr = run()

        assert rv.rectangles == rr.rectangles
        assert rv.gathered_items == rr.gathered_items == len(rv.summaries)
        assert rv.partial == rr.partial
        assert rv.n_files_missing == rr.n_files_missing
        assert rv.n_files_corrupt == rr.n_files_corrupt
        assert rv.coverage == rr.coverage
        assert math.isclose(
            rv.low_olr_fraction, rr.low_olr_fraction, rel_tol=1e-12, abs_tol=1e-15
        )
        sv, sr = rv.summaries, rr.summaries
        assert (sv.x_bounds, sv.y_bounds) == (sr.x_bounds, sr.y_bounds)
        for column in ("file_index", "block_x", "block_y", "olr_fraction"):
            assert np.array_equal(getattr(sv, column), getattr(sr, column))
        assert np.allclose(sv.qcloud, sr.qcloud, rtol=1e-12, atol=1e-15)
        assert [c.tolist() for c in rv.clusters] == [c.tolist() for c in rr.clusters]

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_aggregate_matches_per_file_summarise(self, data):
        files, _sim_grid = draw_split_batch(data)
        threshold = data.draw(
            st.sampled_from((0.0, 150.0, 200.0, 400.0)), label="threshold"
        )
        corrupt, qcloud, count = aggregate_summaries(files, threshold)
        ref = aggregate_summaries_reference(files, threshold)
        assert np.array_equal(corrupt, ref[0]) and np.array_equal(count, ref[2])
        for rank in range(len(files)):
            f = files.file(rank)
            if f is None:
                assert (corrupt[rank], qcloud[rank], count[rank]) == (False, 0.0, 0)
                continue
            bad = not (np.isfinite(f.qcloud).all() and np.isfinite(f.olr).all())
            assert corrupt[rank] == bad
            if corrupt[rank]:
                assert (qcloud[rank], count[rank]) == (0.0, 0)
                continue
            expect_qcloud, expect_fraction = f.summarise(threshold)
            assert count[rank] / f.extent.area == expect_fraction
            assert math.isclose(
                qcloud[rank], expect_qcloud, rel_tol=1e-12, abs_tol=1e-15
            )

    def test_aggregate_empty(self):
        field = np.zeros((3, 4))
        lost = SplitBatch(field, field, (0, 2, 4), (0, 3), np.ones(2, dtype=bool))
        for aggregate in (aggregate_summaries, aggregate_summaries_reference):
            corrupt, qcloud, count = aggregate(lost, 200.0)
            assert corrupt.tolist() == [False, False]
            assert qcloud.tolist() == [0.0, 0.0] and count.tolist() == [0, 0]


class TestBatchHotPath:
    """The shipped batch path: its summation order, and no per-file objects."""

    @staticmethod
    def mumbai_model(steps=14):
        scenario = mumbai_2005_scenario(seed=2005, n_steps=steps + 2)
        model = WrfLikeModel(
            scenario.config, scenario.birth_fn, scenario.initial_systems
        )
        for _ in range(steps):
            model.step()
        return model

    def test_qcloud_sums_each_tile_in_its_own_order(self):
        # the 552 x 324 Mumbai grid over 32 x 32 ranks: four tile shapes
        model = self.mumbai_model()
        batch = model.write_split_files()
        assert (batch.px, batch.py) == (32, 32)
        corrupt, qcloud, count = aggregate_summaries(batch, OLR_THRESHOLD)
        assert not corrupt.any()
        for rank in range(len(batch)):
            q, o = batch.tile_fields(rank)
            mask = o <= OLR_THRESHOLD
            assert qcloud[rank] == np.where(mask, q, 0.0).sum()  # bit for bit
            assert count[rank] == np.count_nonzero(mask)

    def test_detect_makes_no_call_per_row(self):
        # the root's qcloudinfo stays one record from the gather to the
        # rectangles: no tile is cut into a file or asked for its extent,
        # and a Rect is built only for each rectangle
        machine = MACHINES["bgl-1024"]
        model = self.mumbai_model()
        assert model.config.sim_grid.nprocs == machine.ncores
        rects_built = []
        results = []
        rects_of_pda = []  # the Rects built while each PDA call ran
        rect_init = Rect.__post_init__

        def counting_init(self):
            rects_built.append(self)
            rect_init(self)

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} was called on the detect path")

            return call

        def recording_pda(*args, **kwargs):
            before = len(rects_built)
            results.append(parallel_data_analysis(*args, **kwargs))
            rects_of_pda.append(rects_built[before:])
            return results[-1]

        with (
            mock.patch.object(Rect, "__post_init__", counting_init),
            mock.patch.object(SplitFile, "__post_init__", refuse("SplitFile")),
            mock.patch.object(SplitBatch, "extent", refuse("SplitBatch.extent")),
            mock.patch.object(SplitBatch, "file", refuse("SplitBatch.file")),
            mock.patch("repro.wrf.nests.parallel_data_analysis", recording_pda),
        ):
            detection = detect_nests(model, NestTracker())
        (result,), (built,) = results, rects_of_pda
        assert detection.rois and result.gathered_items > len(result.rectangles) > 0
        assert [id(r) for r in built] == [id(r) for r in result.rectangles]


#: small pools so cells and QCLOUD values repeat, zero included; a
#: negative value under a negative threshold lets a cluster's mean be
#: exactly 0 while the element's is not, so both sides of the guard's
#: ``old_mean == 0`` branch are reached
NNC_QCLOUDS = (-0.02, 0.0, 0.001, 0.005, 0.02, 0.02, 0.1, 0.5, 1.0, 3.0)
NNC_FRACTIONS = (0.0, 0.004, 0.005, 0.3, 1.0)


def draw_nnc_case(data):
    """A sorted ``qcloudinfo`` on a small block grid plus an NNC configuration."""
    w = data.draw(st.integers(1, 6), label="grid_w")
    h = data.draw(st.integers(1, 6), label="grid_h")
    cells = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    rows = data.draw(
        st.lists(
            st.tuples(cells, st.sampled_from(NNC_QCLOUDS), st.sampled_from(NNC_FRACTIONS)),
            max_size=40,
        ),
        label="elements",
    )
    flat = [(x, y, qcloud, fraction) for (x, y), qcloud, fraction in rows]
    columns = [list(c) for c in zip(*flat)] if flat else [[]] * 4
    info = QcloudInfo.sort_gathered(
        np.arange(len(rows)), *columns, tuple(range(w + 1)), tuple(range(h + 1))
    )
    config = NNCConfig(
        qcloud_threshold=data.draw(st.sampled_from((-1.0, 0.0, 0.005, 0.05)), label="q_min"),
        olr_fraction_threshold=data.draw(st.sampled_from((0.0, 0.005)), label="f_min"),
        mean_deviation=data.draw(st.sampled_from((0.0, 0.3, 2.0)), label="mean_dev"),
        max_hops=data.draw(st.integers(1, 4), label="max_hops"),
    )
    return info, config


def cluster_ids(clusters):
    """Clusters as lists of row indices: the same rows, in order."""
    return [c.tolist() for c in clusters]


class TestNNCEquivalence:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_clusters_match_per_member_reference(self, data):
        info, config = draw_nnc_case(data)
        assert cluster_ids(nearest_neighbour_clustering(info, config)) == cluster_ids(
            _nearest_neighbour_clustering_reference(info, config)
        )

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_distance_count_is_the_references_distance_calls(self, data):
        info, config = draw_nnc_case(data)
        calls = []

        def counting(*args):
            calls.append(args)
            return _distance_ok(*args)

        with mock.patch("repro.analysis.nnc._distance_ok", counting):
            _nearest_neighbour_clustering_reference(info, config)
        assert count_distance_evaluations(info, config) == len(calls)

    def test_zero_mean_cluster_admits_only_a_zero_mean(self):
        # a cluster of mean 0 takes a neighbour that keeps the mean at 0,
        # and refuses one that moves it at any hop
        config = NNCConfig(qcloud_threshold=-1.0, olr_fraction_threshold=0.0)
        bounds = (0, 1, 2, 3)
        info = QcloudInfo(
            [0, 1, 2], [0, 1, 2], [0, 0, 0], [0.0, 0.0, -0.5], [0.5] * 3, bounds, (0, 1)
        )
        for cluster in (nearest_neighbour_clustering, _nearest_neighbour_clustering_reference):
            assert cluster_ids(cluster(info, config)) == [[0, 1], [2]]

    def test_unsorted_input_rejected_by_both(self):
        info = QcloudInfo([0, 1], [0, 1], [0, 0], [0.1, 0.2], [0.5, 0.5], (0, 1, 2), (0, 1))
        for cluster in (nearest_neighbour_clustering, _nearest_neighbour_clustering_reference):
            with pytest.raises(ValueError):
                cluster(info)


class TestStatefulChurnEquivalence:
    """Drive full reallocators through randomized nest churn.

    Two reallocators, one shipped and one whose simulator charges its link
    state from the oracles, walk an identical drawn sequence of adaptation
    points — nest births, deaths, growth/decay (the observable effect of
    merges and splits) and an optional rank failure — and after every step
    both must agree bit-for-bit, each link state must hold exactly the
    plan's nests, both states' summed loads must be equal, and each
    state's busiest-link answer must match brute-force routing of the
    concatenated plan messages.
    """

    @staticmethod
    def _make_reallocators():
        from repro.core import DiffusionStrategy, ProcessorReallocator
        from repro.perfmodel import ExecTimePredictor, ExecutionOracle, ProfileTable

        reallocs = {
            mode: ProcessorReallocator(
                MACHINES["bgl-256"],
                DiffusionStrategy(),
                ExecTimePredictor(ProfileTable(ExecutionOracle())),
            )
            for mode in ("vector", "reference")
        }
        ref = reallocs["reference"]
        ref.simulator = ReferenceSimulator(ref.machine.mapping, ref.cost)
        ref.link_state = LinkLoadState(ref.simulator)
        return reallocs

    def _churn(self, data, nests, next_id, step):
        nests = dict(nests)
        for nid in sorted(nests):
            action = data.draw(
                st.sampled_from(("keep", "keep", "decay", "grow", "die")),
                label=f"step{step}.nest{nid}",
            )
            if action == "die" and len(nests) > 1:
                del nests[nid]
            elif action == "decay":
                nx, ny = nests[nid]
                nests[nid] = (max(6, nx - 10), max(6, ny - 8))
            elif action == "grow":
                nx, ny = nests[nid]
                nests[nid] = (min(96, nx + 12), min(96, ny + 6))
        for _ in range(data.draw(st.integers(0, 2), label=f"step{step}.births")):
            nests[next_id] = (
                data.draw(st.integers(8, 64), label=f"step{step}.nx{next_id}"),
                data.draw(st.integers(8, 64), label=f"step{step}.ny{next_id}"),
            )
            next_id += 1
        return nests, next_id

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_link_state_and_plans_under_churn(self, data):
        reallocs = self._make_reallocators()
        nests = {1: (40, 40), 2: (30, 50), 3: (24, 24)}
        next_id = 4
        n_steps = data.draw(st.integers(3, 5), label="n_steps")
        fail_at = data.draw(st.integers(1, n_steps - 1), label="fail_at")
        inject_failure = data.draw(st.booleans(), label="inject_failure")
        for step in range(n_steps):
            if inject_failure and step == fail_at:
                nprocs = reallocs["vector"].grid.nprocs
                dead = data.draw(st.integers(0, nprocs - 1), label="dead_rank")
                for realloc in reallocs.values():
                    realloc.handle_rank_failure([dead])
                    # the wire picture is void after a failure
                    assert realloc.link_state.active_keys == []
                    assert not realloc.link_state.loads().any()
                assert (
                    reallocs["vector"].grid.nprocs
                    == reallocs["reference"].grid.nprocs
                )
            nests, next_id = self._churn(data, nests, next_id, step)
            results = {m: r.step(dict(nests)) for m, r in reallocs.items()}

            rv, rr = results["vector"], results["reference"]
            assert rv.allocation.rects == rr.allocation.rects
            assert (rv.plan is None) == (rr.plan is None)
            if rv.plan is not None:
                assert rv.plan.measured_time == rr.plan.measured_time
                assert rv.plan.predicted_time == rr.plan.predicted_time
                assert rv.plan.network_bytes == rr.plan.network_bytes
                assert rv.plan.hop_bytes_total == rr.plan.hop_bytes_total
                assert rv.plan.retained_nests == rr.plan.retained_nests

            for mode, realloc in reallocs.items():
                plan = results[mode].plan
                if plan is None:
                    continue
                state = realloc.link_state
                assert state.active_keys == sorted(plan.retained_nests)
                all_msgs = MessageSet.concat([m.messages for m in plan.moves])
                assert state.busiest_link_contributions() == (
                    NetworkSimulator._busiest_link_contributions_reference(
                        realloc.simulator, all_msgs
                    )
                )
            # shipped charges and oracle charges sum to the same loads
            assert np.array_equal(
                reallocs["vector"].link_state.loads(),
                reallocs["reference"].link_state.loads(),
            )
