"""Tests for repro.mpisim: cost model, alltoallv, network simulator, SimComm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import BlockDecomposition, ProcessorGrid, Rect, transfer_matrix
from repro.mpisim import (
    CostModel,
    MessageSet,
    NetworkSimulator,
    SimComm,
    hop_bytes,
    messages_from_transfer,
    predict_alltoallv_time,
)
from repro.topology import RowMajorMapping, Torus3D, blue_gene_l, fist_cluster


def msgset(triples):
    src, dst, b = zip(*triples)
    return MessageSet(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(b, dtype=np.float64),
    )


class TestCostModel:
    def test_collective_floor(self):
        c = CostModel(alpha=0.0, beta=1e-9, soft_alpha=1e-5)
        assert c.collective_floor(1024) == pytest.approx(1024e-5)
        with pytest.raises(ValueError):
            c.collective_floor(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(-1, 1e-9)
        with pytest.raises(ValueError):
            CostModel(0, 0)
        with pytest.raises(ValueError):
            CostModel(0, 1e-9, bytes_per_point=0)

    def test_for_machine(self):
        m = blue_gene_l(256)
        c = CostModel.for_machine(m)
        assert c.beta == pytest.approx(1.0 / m.topology.link_bandwidth)


class TestMessageSet:
    def test_rejects_self_messages(self):
        with pytest.raises(ValueError):
            msgset([(1, 1, 100.0)])

    def test_rejects_empty_messages(self):
        with pytest.raises(ValueError):
            msgset([(0, 1, 0.0)])

    def test_total_bytes(self):
        m = msgset([(0, 1, 100.0), (1, 2, 50.0)])
        assert m.total_bytes == 150.0 and len(m) == 2

    def test_concat(self):
        a = msgset([(0, 1, 10.0)])
        b = msgset([(2, 3, 20.0)])
        c = MessageSet.concat([a, b])
        assert len(c) == 2 and c.total_bytes == 30.0

    def test_concat_empty(self):
        assert len(MessageSet.concat([])) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            MessageSet(np.array([0]), np.array([1, 2]), np.array([1.0]))


class TestMessagesFromTransfer:
    def test_drops_local_copies(self):
        g = ProcessorGrid(8, 8)
        old = BlockDecomposition(16, 16, Rect(0, 0, 2, 2))
        new = BlockDecomposition(16, 16, Rect(0, 0, 4, 4))
        t = transfer_matrix(old, new, g.px)
        msgs = messages_from_transfer(t, bytes_per_point=8.0)
        assert np.all(msgs.src != msgs.dst)
        assert msgs.total_bytes == pytest.approx(t.network_points * 8.0)

    def test_identity_is_empty(self):
        g = ProcessorGrid(8, 8)
        d = BlockDecomposition(16, 16, Rect(0, 0, 2, 2))
        t = transfer_matrix(d, d, g.px)
        assert len(messages_from_transfer(t, 8.0)) == 0


class TestPredictAlltoallv:
    def test_empty(self):
        m = blue_gene_l(256)
        cost = CostModel.for_machine(m)
        assert predict_alltoallv_time(MessageSet.concat([]), m, cost) == 0.0

    def test_torus_max_pair(self):
        machine = blue_gene_l(256)
        cost = CostModel(
            alpha=0.0, beta=1.0, bytes_per_point=1.0, soft_beta=0.0, soft_alpha=0.0
        )
        msgs = msgset([(0, 1, 10.0), (0, 2, 3.0)])
        h1 = int(machine.mapping.rank_hops(np.asarray(0), np.asarray(1)))
        h2 = int(machine.mapping.rank_hops(np.asarray(0), np.asarray(2)))
        expected = max(10.0 * max(h1, 1), 3.0 * max(h2, 1))
        assert predict_alltoallv_time(msgs, machine, cost) == pytest.approx(expected)

    def test_switched_sums_per_sender(self):
        machine = fist_cluster(256)
        cost = CostModel(alpha=1.0, beta=1.0, soft_beta=0.0, soft_alpha=0.0)
        msgs = msgset([(0, 1, 10.0), (0, 2, 5.0), (3, 4, 12.0)])
        # sender 0: (1+10)+(1+5) = 17; sender 3: 13
        assert predict_alltoallv_time(msgs, machine, cost) == pytest.approx(17.0)

    def test_more_hops_costs_more_on_torus(self):
        machine = blue_gene_l(1024)
        cost = CostModel(alpha=0.0, beta=1e-9)
        near = msgset([(0, 1, 1e6)])
        h_far = 0
        far_rank = 0
        for r in range(machine.ncores):
            h = int(machine.mapping.rank_hops(np.asarray(0), np.asarray(r)))
            if h > h_far:
                h_far, far_rank = h, r
        far = msgset([(0, far_rank, 1e6)])
        assert predict_alltoallv_time(far, machine, cost) > predict_alltoallv_time(
            near, machine, cost
        )


class TestHopBytes:
    def test_zero_for_empty(self):
        m = blue_gene_l(256)
        assert hop_bytes(MessageSet.concat([]), m.mapping) == (0.0, 0.0)

    def test_weighted_average(self):
        t = Torus3D((4, 4, 4))
        mapping = RowMajorMapping(t)
        # nodes 0->1 : 1 hop ; 0->2 : 2 hops
        msgs = msgset([(0, 1, 100.0), (0, 2, 100.0)])
        total, avg = hop_bytes(msgs, mapping)
        assert total == pytest.approx(300.0)
        assert avg == pytest.approx(1.5)


class TestNetworkSimulator:
    def _sim(self, machine=None):
        machine = machine or blue_gene_l(256)
        cost = CostModel(
            alpha=machine.topology.link_latency,
            beta=1.0 / machine.topology.link_bandwidth,
            soft_beta=0.0,
            soft_alpha=0.0,
        )
        return NetworkSimulator(machine.mapping, cost), machine

    def test_empty(self):
        sim, _ = self._sim()
        empty = MessageSet.concat([])
        assert sim.bottleneck_time(empty) == 0.0
        assert sim.flow_time(empty) == 0.0

    def test_single_message_times_agree(self):
        sim, machine = self._sim()
        msgs = msgset([(0, 1, 1e6)])
        bw = machine.topology.link_bandwidth
        hops = int(machine.mapping.rank_hops(np.asarray(0), np.asarray(1)))
        assert hops == 1
        expected_wire = 1e6 / bw
        assert sim.bottleneck_time(msgs) == pytest.approx(
            expected_wire + machine.topology.link_latency, rel=1e-6
        )
        assert sim.flow_time(msgs) == pytest.approx(
            expected_wire + machine.topology.link_latency, rel=1e-6
        )

    def test_contention_slower_than_isolated(self):
        sim, machine = self._sim()
        # many senders all target rank 0: its ejection links saturate
        n = 16
        fan_in = msgset([(i, 0, 1e6) for i in range(1, n + 1)])
        spread = msgset([(2 * i, 2 * i + 1, 1e6) for i in range(1, n + 1)])
        assert sim.bottleneck_time(fan_in) > sim.bottleneck_time(spread)
        assert sim.flow_time(fan_in) > sim.flow_time(spread)

    def test_flow_time_at_least_bottleneck_wire_phase(self):
        sim, _ = self._sim()
        rng = np.random.default_rng(2)
        triples = []
        for _ in range(40):
            a, b = rng.integers(0, 256, 2)
            if a != b:
                triples.append((int(a), int(b), float(rng.integers(1, 10) * 1e5)))
        msgs = msgset(triples)
        # flow completion cannot beat the most-loaded link drain time
        loads = sim.link_loads(msgs)
        wire = max(loads.values()) / sim.topology.link_bandwidth
        assert sim.flow_time(msgs) >= wire * (1 - 1e-9)

    def test_link_loads_conserve_hop_bytes(self):
        sim, machine = self._sim()
        msgs = msgset([(0, 5, 1000.0), (7, 3, 500.0)])
        loads = sim.link_loads(msgs)
        total_hop_bytes, _ = hop_bytes(msgs, machine.mapping)
        assert sum(loads.values()) == pytest.approx(total_hop_bytes)

    def test_flow_time_deterministic(self):
        sim, _ = self._sim()
        msgs = msgset([(0, 1, 1e6), (2, 3, 2e6), (0, 3, 5e5)])
        assert sim.flow_time(msgs) == sim.flow_time(msgs)

    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63), st.floats(1e3, 1e7)), min_size=1, max_size=25))
    @settings(max_examples=30, deadline=None)
    def test_flow_time_finite_positive(self, triples):
        t = Torus3D((4, 4, 4))
        mapping = RowMajorMapping(t)
        sim = NetworkSimulator(mapping, CostModel(alpha=1e-6, beta=1.0 / t.link_bandwidth))
        triples = [(a, b, x) for a, b, x in triples if a != b]
        if not triples:
            return
        msgs = msgset(triples)
        ft = sim.flow_time(msgs)
        bt = sim.bottleneck_time(msgs)
        assert np.isfinite(ft) and ft > 0
        assert ft >= bt * 0.5  # sanity: same order of magnitude


class TestAdaptiveRouting:
    def test_routes_still_shortest(self):
        machine = blue_gene_l(256)
        cost = CostModel.for_machine(machine)
        det = NetworkSimulator(machine.mapping, cost)
        ada = NetworkSimulator(machine.mapping, cost, adaptive_routing=True)
        rng = np.random.default_rng(0)
        for _ in range(40):
            a, b = (int(v) for v in rng.integers(0, 256, 2))
            if a == b:
                continue
            assert len(ada._route(a, b)) == len(det._route(a, b))

    def test_adaptive_spreads_load(self):
        # many messages from one plane to another: deterministic XYZ routing
        # funnels them through the same dimension first; adaptive spreads
        machine = blue_gene_l(1024)
        cost = CostModel.for_machine(machine)
        det = NetworkSimulator(machine.mapping, cost)
        ada = NetworkSimulator(machine.mapping, cost, adaptive_routing=True)
        rng = np.random.default_rng(1)
        triples = []
        for _ in range(120):
            a, b = (int(v) for v in rng.integers(0, 1024, 2))
            if a != b:
                triples.append((a, b, 1e5))
        msgs = msgset(triples)
        det_max = max(det.link_loads(msgs).values())
        ada_max = max(ada.link_loads(msgs).values())
        assert ada_max <= det_max * 1.05  # never much worse, usually better

    def test_flag_ignored_on_switched(self):
        machine = fist_cluster(256)
        cost = CostModel.for_machine(machine)
        sim = NetworkSimulator(machine.mapping, cost, adaptive_routing=True)
        assert sim.adaptive_routing is False  # no route_ordered on fat-tree


class TestSimComm:
    def test_run_executes_all_ranks(self):
        comm = SimComm(4)
        assert comm.run(lambda r: r * r) == [0, 1, 4, 9]

    def test_gather_flattens(self):
        comm = SimComm(3)
        out = comm.gather([[1], [2, 3], []], root=0)
        assert out == [1, 2, 3]

    def test_gather_counts_messages(self):
        comm = SimComm(3)
        comm.gather([[1], [2], [3]], root=0)
        assert comm.stats.messages == 2  # root does not message itself
        assert comm.stats.gathers == 1

    def test_gather_wrong_length(self):
        with pytest.raises(ValueError):
            SimComm(2).gather([[1]], root=0)

    def test_gather_bad_root(self):
        with pytest.raises(ValueError):
            SimComm(2).gather([[1], [2]], root=5)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            SimComm(0)

