"""Tests for repro.topology: torus/mesh/switched metrics, routing, mappings."""

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
