"""Tests for repro.topology: torus/mesh/switched metrics, routing, mappings."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    FoldedMapping,
    Mesh3D,
    MACHINES,
    RandomMapping,
    RowMajorMapping,
    SwitchedNetwork,
    Torus3D,
    blue_gene_l,
    fist_cluster,
)


class TestTorus3D:
    def test_nnodes(self):
        assert Torus3D((8, 8, 16)).nnodes == 1024

    def test_coords_roundtrip(self):
        t = Torus3D((3, 4, 5))
        for n in range(t.nnodes):
            x, y, z = t.coords(np.asarray(n))
            assert t.node_id(int(x), int(y), int(z)) == n

    def test_hops_identity(self):
        t = Torus3D((4, 4, 4))
        nodes = np.arange(t.nnodes)
        assert np.all(t.hops(nodes, nodes) == 0)

    def test_hops_wraparound(self):
        t = Torus3D((8, 1, 1))
        # nodes 0 and 7 are adjacent through the wrap link
        assert t.hops(np.asarray(0), np.asarray(7)) == 1

    def test_hops_known_value(self):
        t = Torus3D((8, 8, 16))
        a = t.node_id(0, 0, 0)
        b = t.node_id(4, 4, 8)
        assert int(t.hops(np.asarray(a), np.asarray(b))) == 4 + 4 + 8

    def test_route_length_matches_hops(self):
        t = Torus3D((4, 5, 3))
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.integers(0, t.nnodes, 2)
            assert len(t.route(int(a), int(b))) == int(
                t.hops(np.asarray(a), np.asarray(b))
            )

    def test_route_empty_for_self(self):
        t = Torus3D((4, 4, 4))
        assert t.route(5, 5) == []

    def test_route_ordered_permutations(self):
        t = Torus3D((4, 5, 3))
        rng = np.random.default_rng(7)
        orders = [(0, 1, 2), (2, 1, 0), (1, 0, 2)]
        for _ in range(25):
            a, b = (int(v) for v in rng.integers(0, t.nnodes, 2))
            expected = int(t.hops(np.asarray(a), np.asarray(b)))
            for order in orders:
                assert len(t.route_ordered(a, b, order)) == expected

    def test_route_ordered_differs_between_orders(self):
        t = Torus3D((4, 4, 4))
        a, b = t.node_id(0, 0, 0), t.node_id(2, 2, 0)
        assert t.route_ordered(a, b, (0, 1, 2)) != t.route_ordered(a, b, (1, 0, 2))

    def test_route_ordered_validation(self):
        t = Torus3D((4, 4, 4))
        with pytest.raises(ValueError):
            t.route_ordered(0, 1, (0, 0, 2))

    def test_route_links_unique(self):
        t = Torus3D((4, 4, 4))
        r = t.route(0, t.nnodes - 1)
        assert len(r) == len(set(r))

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            Torus3D((0, 4, 4))

    def test_validate_node(self):
        t = Torus3D((2, 2, 2))
        with pytest.raises(ValueError):
            t.route(0, 8)

    @given(
        st.integers(0, 8 * 8 * 16 - 1),
        st.integers(0, 8 * 8 * 16 - 1),
        st.integers(0, 8 * 8 * 16 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_metric_properties(self, a, b, c):
        t = Torus3D((8, 8, 16))
        ab = int(t.hops(np.asarray(a), np.asarray(b)))
        ba = int(t.hops(np.asarray(b), np.asarray(a)))
        assert ab == ba  # symmetry
        assert ab >= 0 and (ab == 0) == (a == b)  # identity
        ac = int(t.hops(np.asarray(a), np.asarray(c)))
        cb = int(t.hops(np.asarray(c), np.asarray(b)))
        assert ab <= ac + cb  # triangle inequality


class TestMesh3D:
    def test_no_wraparound(self):
        m = Mesh3D((8, 1, 1))
        assert int(m.hops(np.asarray(0), np.asarray(7))) == 7

    def test_route_matches_hops(self):
        m = Mesh3D((4, 3, 5))
        rng = np.random.default_rng(4)
        for _ in range(40):
            a, b = rng.integers(0, m.nnodes, 2)
            assert len(m.route(int(a), int(b))) == int(
                m.hops(np.asarray(a), np.asarray(b))
            )

    def test_mesh_never_shorter_than_torus(self):
        t, m = Torus3D((4, 4, 8)), Mesh3D((4, 4, 8))
        nodes = np.arange(t.nnodes)
        src, dst = np.meshgrid(nodes, nodes, indexing="ij")
        assert np.all(
            m.hops(src.ravel(), dst.ravel()) >= t.hops(src.ravel(), dst.ravel())
        )

    def test_folded_mapping_accepts_mesh(self):
        m = Mesh3D((8, 8, 4))
        mapping = FoldedMapping(m, 16, 16)
        assert sorted(mapping.table.tolist()) == list(range(256))


def coords_hops(topology, src, dst):
    """Hop counts straight from :meth:`Torus3D.coords` arithmetic, axis by
    axis: the mesh travels the direct way, the torus the shorter one."""
    total = 0
    for s, t, size in zip(topology.coords(src), topology.coords(dst), topology.dims):
        d = np.abs(s - t)
        total = total + (d if isinstance(topology, Mesh3D) else np.minimum(d, size - d))
    return total


#: the degenerate shapes the wire equivalence suite prices, a BG/L
#: partition and odd rings
TABLE_DIMS = ((2, 1, 3), (8, 1, 1), (1, 1, 1), (3, 5, 7), (4, 3, 5), (8, 8, 4))


class TestCoordinateTable:
    """``hops`` and the ring kernels read one lazily built node table."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_hops_match_coords_arithmetic(self, data):
        cls = data.draw(st.sampled_from((Torus3D, Mesh3D)), label="kind")
        t = cls(data.draw(st.sampled_from(TABLE_DIMS), label="dims"))
        node = st.integers(0, t.nnodes - 1)
        form = data.draw(st.sampled_from(("array", "broadcast", "0-d")), label="form")
        if form == "0-d":
            src = np.asarray(data.draw(node, label="src"))
            dst = np.asarray(data.draw(node, label="dst"))
        else:
            n = data.draw(st.integers(0, 12), label="n")
            m = n if form == "array" else data.draw(st.integers(1, 5), label="m")
            src = np.asarray(data.draw(st.lists(node, min_size=n, max_size=n)), np.int64)
            dst = np.asarray(data.draw(st.lists(node, min_size=m, max_size=m)), np.int64)
            if form == "broadcast":
                src = src[:, None]  # (n, 1) against (m,)
        got = t.hops(src, dst)
        expected = coords_hops(t, src, dst)
        assert np.shape(got) == np.broadcast_shapes(src.shape, dst.shape)
        assert np.array_equal(got, expected)
        if form == "0-d":
            assert int(t.hops(src, dst)) == int(expected)

    def test_table_is_built_on_first_use(self):
        t = Torus3D((3, 5, 7))
        assert t._xyz is None
        t.hops(np.asarray(0), np.asarray(1))
        assert t._xyz.dtype == np.int64
        assert np.array_equal(t._xyz, np.stack(t.coords(np.arange(t.nnodes))))

    def test_no_table_is_built_at_import(self):
        code = (
            "from repro.topology import MACHINES, Torus3D\n"
            "tori = [m.topology for m in MACHINES.values()"
            " if isinstance(m.topology, Torus3D)]\n"
            "print(len(tori), sum(t._xyz is not None or t._pairs is not None"
            " for t in tori))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        ntori, built = (int(v) for v in proc.stdout.split())
        assert ntori >= 6 and built == 0

    def test_racing_first_calls_agree(self):
        """Four threads make a fresh torus's first ``hops`` and
        ``ring_link_loads`` calls at once; the lazily built coordinate and
        pair tables must give each the answers of a torus that built them
        alone."""
        rng = np.random.default_rng(11)
        src, dst = rng.integers(0, 16 * 16 * 16, (2, 3000))
        nbytes = rng.integers(1, 1 << 20, 3000).astype(np.float64)
        alone = Torus3D((16, 16, 16))
        expected_loads = alone.ring_link_loads(src, dst, nbytes)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(10):
                t = Torus3D((16, 16, 16))
                expected = coords_hops(t, src, dst)
                start = threading.Barrier(4)
                results: list = [None] * 4

                def first_call(i, t=t, start=start, results=results):
                    start.wait(timeout=10)
                    if i % 2:
                        loads = t.ring_link_loads(src, dst, nbytes)
                        results[i] = (t.hops(src, dst), loads)
                    else:
                        hops = t.hops(src, dst)
                        results[i] = (hops, t.ring_link_loads(src, dst, nbytes))

                threads = [
                    threading.Thread(target=first_call, args=(i,)) for i in range(4)
                ]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30)
                assert not any(th.is_alive() for th in threads)
                for got in results:
                    assert got is not None and np.array_equal(got[0], expected)
                    for part, want in zip(got[1], expected_loads):
                        assert np.array_equal(part, want)
        finally:
            sys.setswitchinterval(old)


#: the shapes the wire equivalence suite prices (BG/L partitions, odd and
#: degenerate rings) and a single node
ROUTE_DIMS = (
    (4, 4, 4), (8, 8, 4), (8, 8, 16), (16, 16, 16),
    (3, 5, 7), (2, 1, 3), (4, 3, 5), (8, 1, 1), (1, 1, 1),
)


def draw_pairs(data, t):
    """``n`` node pairs of ``t`` and, half the time, per-pair orders."""
    n = data.draw(st.integers(0, 20), label="n")
    node = st.integers(0, t.nnodes - 1)
    src = np.asarray(data.draw(st.lists(node, min_size=n, max_size=n)), np.int64)
    dst = np.asarray(data.draw(st.lists(node, min_size=n, max_size=n)), np.int64)
    order_idx = None
    if data.draw(st.booleans(), label="per-pair orders"):
        order_idx = np.asarray(
            data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), np.int64
        )
    return src, dst, order_idx


class TestBatchRoutes:
    """``batch_routes`` walks the ring intervals hop by hop; the scalar
    ``route_ordered`` is its specification, pair by pair."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_route_ordered(self, data):
        cls = data.draw(st.sampled_from((Torus3D, Mesh3D)), label="kind")
        t = cls(data.draw(st.sampled_from(ROUTE_DIMS), label="dims"))
        src, dst, order_idx = draw_pairs(data, t)
        n = src.size
        links, offsets = t.batch_routes(src, dst, order_idx)
        assert links.dtype == offsets.dtype == np.int64
        assert offsets.shape == (n + 1,) and offsets[0] == 0
        for i in range(n):
            order = (0, 1, 2) if order_idx is None else t.DIM_ORDERS[order_idx[i]]
            expected = t.route_ordered(int(src[i]), int(dst[i]), order)
            assert links[offsets[i] : offsets[i + 1]].tolist() == expected
        assert offsets[-1] == links.size

    @pytest.mark.parametrize("cls", [Torus3D, Mesh3D])
    def test_nodes_outside_the_machine_rejected(self, cls):
        """Every ring kernel refuses them: a table gather would wrap node
        -1 onto the last node."""
        t = cls((2, 1, 3))
        for bad in (-1, t.nnodes):
            for src, dst, order_idx in (
                ([0, bad], [1, 0], None),
                ([0], [bad], [3]),
                ([bad], [0], None),
            ):
                src, dst = np.array(src), np.array(dst)
                for kernel, extra in (
                    (t.batch_routes, ()),
                    (t.ring_busiest_load, (np.full(src.size, 64.0),)),
                    (t.ring_link_loads, (np.full(src.size, 64.0),)),
                    (t.ring_crossings, (0,)),
                ):
                    with pytest.raises(ValueError, match="node ids outside"):
                        kernel(src, dst, *extra, order_idx)


class TestPairTable:
    """The ring kernels look every axis segment up in one per-axis table
    of (source, target) coordinate pairs; ``route_ordered`` is their
    specification, route by route."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_ring_kernels_match_route_ordered(self, data):
        cls = data.draw(st.sampled_from((Torus3D, Mesh3D)), label="kind")
        t = cls(data.draw(st.sampled_from(ROUTE_DIMS), label="dims"))
        src, dst, order_idx = draw_pairs(data, t)
        nbytes = np.asarray(
            data.draw(st.lists(st.integers(1, 1 << 30), min_size=src.size, max_size=src.size)),
            np.float64,
        )
        routes = [
            t.route_ordered(
                int(s), int(d), (0, 1, 2) if order_idx is None else t.DIM_ORDERS[o]
            )
            for s, d, o in zip(src, dst, order_idx if order_idx is not None else src)
        ]
        expected: dict[int, float] = {}
        for route, b in zip(routes, nbytes.tolist()):
            for link in route:
                expected[link] = expected.get(link, 0.0) + b
        links, loads = t.ring_link_loads(src, dst, nbytes, order_idx)
        assert links.tolist() == sorted(expected)
        assert loads.tolist() == [expected[link] for link in sorted(expected)]
        busiest = t.ring_busiest_load(src, dst, nbytes, order_idx)
        assert type(busiest) is float
        assert busiest == max(expected.values(), default=0.0)
        assert busiest == (loads.max() if loads.size else 0.0)
        assert t.ring_busiest_load(src[:0], dst[:0], nbytes[:0]) == 0.0
        if t.nlinks <= 200:
            probes = range(t.nlinks)
        else:
            probes = sorted(expected) + [data.draw(st.integers(0, t.nlinks - 1), label="link")]
        for link in probes:
            crossed = t.ring_crossings(src, dst, link, order_idx)
            assert crossed.tolist() == [link in route for route in routes]

    @pytest.mark.parametrize("cls", [Torus3D, Mesh3D])
    @pytest.mark.parametrize("dims", [(8, 8, 4), (3, 5, 7), (2, 1, 3), (1, 1, 1)])
    def test_table_is_the_axis_arithmetic_per_pair(self, cls, dims):
        """Built on first use, one entry per coordinate pair: the segment
        ``_axis_steps_vec`` gives that pair, on ring 0's row of its axis
        and direction, and events whose prefix sum over the row's link
        columns marks exactly the segment's positions; one entry per row:
        the link ids of its positions and its ring size."""
        t = cls(dims)
        assert t._pairs is None
        t.ring_crossings(np.array([0]), np.array([0]), 0)
        table = t._pairs
        assert table is not None and t._pair_table() is table
        width = max(dims) + 1
        assert table.width == width
        key = row = 0
        for axis, size in enumerate(dims):
            nrings = t.nnodes // size
            assert int(table.offset[axis, 0]) == key
            for s in range(size):
                for d in range(size):
                    cnt, sign = (
                        int(v[0])
                        for v in t._axis_steps_vec(np.array([s]), np.array([d]), size)
                    )
                    neg = sign < 0
                    lo = (d + 1) % size if neg else s
                    assert (table.lo[key], table.cnt[key], table.neg[key]) == (lo, cnt, neg)
                    assert table.row0[key] == row + neg * nrings
                    slots = table.pos[:, key]
                    assert ((slots >= 0) & (slots < width)).all()
                    marks = np.zeros(width)
                    np.add.at(marks, slots, [1.0, -1.0, 1.0])
                    covered = np.flatnonzero(np.cumsum(marks)[:size])
                    assert covered.tolist() == sorted((lo + k) % size for k in range(cnt))
                    key += 1
            # a ring is indexed by its two other coordinates, lower axis fastest
            low_axis, up_axis = (b for b in range(3) if b != axis)
            for down in (0, 1):
                for ring in range(nrings):
                    assert table.ring_size[row] == size
                    for p in range(size):
                        here = [0, 0, 0]
                        here[axis] = p
                        here[up_axis], here[low_axis] = divmod(ring, dims[low_axis])
                        link = t.link_id(t.node_id(*here), 2 * axis + down)
                        assert table.link0[row] + p * table.stride[row] == link
                    row += 1
        assert key == table.lo.size == table.pos.shape[1] == table.row0.size
        assert row == table.link0.size == table.stride.size == table.ring_size.size

    def test_busiest_load_allocates_nothing_the_size_of_the_machine(self):
        """On a 64k-node torus a 64-message set's busiest load touches at
        most 192 of 10 240 rows; after a warm-up call that builds the
        tables, pricing it allocates under 1 MB (a per-link array of the
        machine is 3 MB)."""
        t = Torus3D((32, 32, 64))
        rng = np.random.default_rng(64)
        src, dst = rng.integers(0, t.nnodes, (2, 64))
        nbytes = rng.integers(1, 1 << 20, 64).astype(np.float64)
        t.ring_busiest_load(src, dst, nbytes)
        tracemalloc.start()
        try:
            t.ring_busiest_load(src, dst, nbytes)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSwitchedNetwork:
    def test_hop_levels(self):
        n = SwitchedNetwork(64, ports_per_switch=16)
        assert int(n.hops(np.asarray(3), np.asarray(3))) == 0
        assert int(n.hops(np.asarray(0), np.asarray(15))) == 2  # same switch
        assert int(n.hops(np.asarray(0), np.asarray(16))) == 4  # cross switch

    def test_route_lengths(self):
        n = SwitchedNetwork(64, ports_per_switch=16)
        assert len(n.route(0, 1)) == 2
        assert len(n.route(0, 63)) == 4
        assert n.route(5, 5) == []

    def test_routes_share_injection_link(self):
        n = SwitchedNetwork(8, ports_per_switch=4)
        r1, r2 = n.route(0, 1), n.route(0, 2)
        assert r1[0] == r2[0]  # same "up" link from node 0

    def test_hops_placement_independent(self):
        # hop count between distinct switches never depends on which nodes
        n = SwitchedNetwork(256, ports_per_switch=32)
        assert int(n.hops(np.asarray(0), np.asarray(255))) == int(
            n.hops(np.asarray(31), np.asarray(32))
        )


class TestMappings:
    def test_row_major_identity(self):
        t = Torus3D((4, 4, 4))
        m = RowMajorMapping(t)
        assert np.array_equal(m.node_of(np.arange(64)), np.arange(64))

    def test_random_is_permutation(self):
        t = Torus3D((4, 4, 4))
        m = RandomMapping(t, seed=3)
        assert sorted(m.table.tolist()) == list(range(64))

    def test_folded_is_permutation(self):
        t = Torus3D((8, 8, 16))
        m = FoldedMapping(t, 32, 32)
        assert sorted(m.table.tolist()) == list(range(1024))

    def test_folded_x_neighbours_one_hop(self):
        t = Torus3D((8, 8, 16))
        m = FoldedMapping(t, 32, 32)
        for y in (0, 13, 31):
            ranks = y * 32 + np.arange(32)
            hops = m.rank_hops(ranks[:-1], ranks[1:])
            assert np.all(hops == 1)

    def test_folded_beats_row_major(self):
        t = Torus3D((8, 8, 16))
        folded = FoldedMapping(t, 32, 32).mean_neighbour_hops(32, 32)
        naive = RowMajorMapping(t).mean_neighbour_hops(32, 32)
        assert folded < naive
        assert folded < 1.5  # near-perfect embedding

    def test_folded_rejects_incompatible(self):
        t = Torus3D((8, 8, 16))
        with pytest.raises(ValueError):
            FoldedMapping(t, 30, 34)  # wrong node count
        with pytest.raises(ValueError):
            FoldedMapping(t, 256, 4)  # 4 not divisible by torus dy=8

    def test_folded_requires_torus(self):
        with pytest.raises(TypeError):
            FoldedMapping(SwitchedNetwork(16), 4, 4)  # type: ignore[arg-type]

    def test_bad_table_rejected(self):
        t = Torus3D((2, 2, 2))
        with pytest.raises(ValueError):
            RowMajorMapping.__bases__[0](t, np.zeros(8, dtype=int))


class TestMachines:
    def test_presets_exist(self):
        assert set(MACHINES) == {
            "bgl-256",
            "bgl-512",
            "bgl-1024",
            "bgl-4096",
            "bgl-16k",
            "bgl-64k",
            "fist-256",
        }

    def test_bgl_1024(self):
        m = blue_gene_l(1024)
        assert m.ncores == 1024 and m.grid == (32, 32) and m.is_torus

    def test_bgl_sizes_consistent(self):
        for n in (256, 512, 1024):
            m = blue_gene_l(n)
            assert m.topology.nnodes == n
            assert m.grid[0] * m.grid[1] == n

    def test_fist(self):
        m = fist_cluster(256)
        assert not m.is_torus and m.ncores == 256

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            blue_gene_l(1000)
        with pytest.raises(ValueError):
            fist_cluster(1000)

    def test_topology_unaware_variant(self):
        m = blue_gene_l(256, topology_aware=False)
        assert isinstance(m.mapping, RowMajorMapping)

    def test_mean_pairwise_hops_sampling(self):
        t = Torus3D((8, 8, 16))
        src, dst = np.random.default_rng(1).integers(0, t.nnodes, size=(2, 2000))
        assert 4 < float(t.hops(src, dst).mean()) < 12  # theoretical mean = 2+2+4 = 8
