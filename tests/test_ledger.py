"""Tests for the per-rank communication ledger (``repro.mpisim.ledger``)
and the route counters / busiest-link breakdown it feeds on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpisim import (
    CommLedger,
    CostModel,
    MessageSet,
    NetworkSimulator,
    SkewSummary,
    format_ledger,
    gini,
)
from repro.topology import blue_gene_l


def msgset(triples):
    src, dst, b = zip(*triples)
    return MessageSet(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(b, dtype=np.float64),
    )


EMPTY = MessageSet.concat([])


class TestGini:
    def test_empty_and_all_zero(self):
        assert gini(np.array([])) == 0.0
        assert gini(np.zeros(8)) == 0.0

    def test_uniform_is_zero(self):
        assert gini(np.full(16, 3.5)) == pytest.approx(0.0)

    def test_single_hot_rank(self):
        # one rank carries everything: G = (n-1)/n
        x = np.zeros(10)
        x[3] = 100.0
        assert gini(x) == pytest.approx(0.9)

    def test_order_invariant(self):
        x = np.array([1.0, 5.0, 2.0, 8.0])
        assert gini(x) == pytest.approx(gini(x[::-1]))

    def test_known_value(self):
        # [0, 1]: G = 2*(1*0 + 2*1)/(2*1) - 3/2 = 1/2
        assert gini(np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gini(np.array([1.0, -1.0]))


class TestCommLedger:
    def test_nranks_validated(self):
        with pytest.raises(ValueError, match="nranks"):
            CommLedger(0)

    def test_accumulation_matches_hand_count(self):
        ledger = CommLedger(4)
        ledger.add_messages(msgset([(0, 1, 100.0), (0, 2, 50.0), (3, 0, 25.0)]))
        ledger.add_messages(msgset([(0, 1, 10.0)]))
        assert ledger.n_collectives == 2
        assert ledger.n_messages == 4
        assert ledger.sent.tolist() == [160.0, 0.0, 0.0, 25.0]
        assert ledger.received.tolist() == [25.0, 110.0, 50.0, 0.0]
        assert ledger.pair_bytes == {
            (0, 1): 110.0,
            (0, 2): 50.0,
            (3, 0): 25.0,
        }
        # no mapping given: hop-bytes stay untouched
        assert ledger.hop_bytes.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_empty_collective_counted_but_harmless(self):
        ledger = CommLedger(2)
        ledger.add_messages(EMPTY)
        assert ledger.n_collectives == 1 and ledger.n_messages == 0
        assert float(ledger.sent.sum()) == 0.0

    def test_hop_bytes_attributed_to_sender(self):
        machine = blue_gene_l(64)
        mapping = machine.mapping
        msgs = msgset([(0, 5, 1000.0), (5, 0, 200.0)])
        ledger = CommLedger(mapping.nranks)
        ledger.add_messages(msgs, mapping)
        hops = mapping.rank_hops(msgs.src, msgs.dst).astype(np.float64)
        assert ledger.hop_bytes[0] == pytest.approx(hops[0] * 1000.0)
        assert ledger.hop_bytes[5] == pytest.approx(hops[1] * 200.0)
        assert float(ledger.hop_bytes.sum()) == pytest.approx(
            float((hops * msgs.nbytes).sum())
        )

    def test_skew_summary_values(self):
        ledger = CommLedger(4)
        ledger.add_messages(msgset([(0, 1, 300.0), (2, 1, 100.0)]))
        s = ledger.skew("sent")
        assert isinstance(s, SkewSummary)
        assert s.label == "sent"
        assert s.total == pytest.approx(400.0)
        assert s.max == pytest.approx(300.0)
        assert s.mean == pytest.approx(100.0)
        assert s.max_over_mean == pytest.approx(3.0)
        assert s.nonzero_ranks == 2 and s.nranks == 4
        assert 0.0 < s.gini < 1.0
        recv = ledger.skew("received")
        assert recv.max == pytest.approx(400.0)
        assert recv.nonzero_ranks == 1

    def test_skew_unknown_series(self):
        with pytest.raises(ValueError, match="unknown series"):
            CommLedger(2).skew("latency")

    def test_skew_to_dict_round_trips(self):
        ledger = CommLedger(2)
        ledger.add_messages(msgset([(0, 1, 10.0)]))
        d = ledger.skew("sent").to_dict()
        assert d["total"] == pytest.approx(10.0)
        assert d["max_over_mean"] == pytest.approx(2.0)

    def test_top_pairs_ordering(self):
        ledger = CommLedger(4)
        ledger.add_messages(
            msgset([(0, 1, 10.0), (1, 2, 30.0), (2, 3, 20.0), (0, 1, 5.0)])
        )
        pairs = ledger.top_pairs(2)
        assert pairs == [((1, 2), 30.0), ((2, 3), 20.0)]

    def test_busiest_link_shares(self):
        ledger = CommLedger(4)
        assert ledger.busiest_link_shares() == []
        ledger.add_busiest_link(100.0, {(0, 1): 60.0, (2, 3): 40.0})
        ledger.add_busiest_link(100.0, {(0, 1): 20.0})
        shares = ledger.busiest_link_shares()
        assert shares[0] == ((0, 1), pytest.approx(0.4))
        assert shares[1] == ((2, 3), pytest.approx(0.2))
        assert sum(share for _, share in shares) <= 1.0 + 1e-12

    def test_to_dict_is_json_shaped(self):
        import json

        ledger = CommLedger(4)
        ledger.add_messages(msgset([(0, 1, 10.0)]))
        ledger.add_busiest_link(10.0, {(0, 1): 10.0})
        d = ledger.to_dict()
        assert json.loads(json.dumps(d))["n_messages"] == 1
        assert d["top_pairs"] == [{"src": 0, "dst": 1, "bytes": 10.0}]
        assert d["busiest_link_shares"] == [{"src": 0, "dst": 1, "share": 1.0}]

    def test_format_ledger_renders(self):
        ledger = CommLedger(4)
        ledger.add_messages(msgset([(0, 1, 10.0), (2, 3, 90.0)]))
        ledger.add_busiest_link(90.0, {(2, 3): 90.0})
        text = format_ledger(ledger, title="unit")
        assert "unit" in text and "Gini" in text
        assert "heaviest rank pairs" in text
        assert "busiest-link contributions" in text


def _sim():
    machine = blue_gene_l(64)
    return NetworkSimulator(machine.mapping, CostModel.for_machine(machine)), machine


class TestBusiestLinkContributions:
    def test_empty_messages(self):
        sim, _ = _sim()
        assert sim.busiest_link_contributions(EMPTY) == (-1, 0.0, {})

    def test_single_message_owns_the_link(self):
        sim, _ = _sim()
        msgs = msgset([(0, 1, 500.0)])
        link, load, contributions = sim.busiest_link_contributions(msgs)
        assert link >= 0
        assert load == pytest.approx(500.0)
        assert contributions == {(0, 1): 500.0}

    def test_matches_link_loads(self):
        sim, _ = _sim()
        msgs = msgset([(0, 1, 100.0), (0, 5, 300.0), (7, 2, 50.0), (1, 0, 100.0)])
        link, load, contributions = sim.busiest_link_contributions(msgs)
        loads = sim.link_loads(msgs)
        assert load == pytest.approx(max(loads.values()))
        assert loads[link] == pytest.approx(load)
        # each pair's contribution is bounded by what it sent in total
        total_by_pair = {}
        for s, d, b in zip(msgs.src, msgs.dst, msgs.nbytes):
            key = (int(s), int(d))
            total_by_pair[key] = total_by_pair.get(key, 0.0) + float(b)
        for pair, nbytes in contributions.items():
            assert nbytes <= total_by_pair[pair] + 1e-9
        # the pairs routed through the busiest link account for its load
        assert sum(contributions.values()) == pytest.approx(load)


class TestRouteCacheCounters:
    """The hit/miss counters keep their cache-era names but count per
    ``routes_csr`` call: a miss is a unique rank pair the call routed, a
    hit a further message of a pair that call already routed.  A torus
    prices its link loads from ring intervals and routes nothing, so these
    drive ``routes_csr`` directly."""

    def test_miss_then_hit(self):
        sim, _ = _sim()
        assert sim.route_cache_hits == 0 and sim.route_cache_misses == 0
        msgs = msgset([(0, 9, 10.0), (0, 9, 24.0)])  # one pair, twice
        sim.routes_csr(msgs)
        assert sim.route_cache_misses == 1
        assert sim.route_cache_hits == 1
        sim.routes_csr(msgs)  # nothing carries over between calls
        assert sim.route_cache_misses == 2
        assert sim.route_cache_hits == 2

    def test_second_call_counts_again(self):
        from repro.obs import FlightRecorder, use_recorder

        sim, _ = _sim()
        msgs = msgset([(0, 9, 10.0), (3, 4, 10.0), (0, 9, 5.0)])
        rec = FlightRecorder()
        with use_recorder(rec):
            sim.routes_csr(msgs)
            assert (sim.route_cache_misses, sim.route_cache_hits) == (2, 1)
            sim.routes_csr(msgs)
        assert (sim.route_cache_misses, sim.route_cache_hits) == (4, 2)
        # the recorder's counters mirror the attributes
        assert rec.counters == {
            "netsim.route_cache_miss": 4,
            "netsim.route_cache_hit": 2,
        }


class TestRouteCacheFifoEviction:
    """Regression kept from the route-cache era: a call over pairs a
    previous call routed, mixed with new pairs, still matches the oracle
    (routing is stateless now, so no earlier call can leak into it)."""

    def test_mixed_batch_survives_eviction_of_probed_hits(self):
        machine = blue_gene_l(64)
        sim = NetworkSimulator(machine.mapping, CostModel.for_machine(machine))
        warm = msgset([(0, dst, 8.0) for dst in range(1, 7)])
        sim.link_loads(warm)
        mixed = msgset(
            [(0, dst, 8.0) for dst in range(1, 7)]
            + [(1, dst, 16.0) for dst in range(10, 20)]
        )
        loads = sim.link_loads(mixed)
        assert loads == sim._link_loads_reference(mixed)


class TestPairByteAccumulator:
    """The sparse COO accumulator against a plain-dict oracle."""

    @staticmethod
    def _make(nranks=16, compact_threshold=8):
        from repro.mpisim.ledger import PairByteAccumulator

        return PairByteAccumulator(nranks, compact_threshold=compact_threshold)

    def test_validation(self):
        from repro.mpisim.ledger import PairByteAccumulator

        with pytest.raises(ValueError):
            PairByteAccumulator(0)
        with pytest.raises(ValueError):
            PairByteAccumulator(8, compact_threshold=0)

    def test_empty(self):
        acc = self._make()
        assert len(acc) == 0
        assert acc.total() == 0.0
        assert acc.to_dict() == {}
        assert acc.top(5) == []
        assert (0, 1) not in acc
        assert acc.get((0, 1)) == 0.0
        with pytest.raises(KeyError):
            acc[(0, 1)]

    def test_mapping_api_matches_dict(self):
        acc = self._make()
        acc.add_pairs([0], [1], [8.0])
        acc.add_pairs([2], [3], [16.0])
        acc.add_pairs([0], [1], [8.0])
        expect = {(0, 1): 16.0, (2, 3): 16.0}
        assert acc.to_dict() == expect
        assert acc == expect
        assert sorted(pair for pair, _ in acc.items()) == sorted(expect)
        assert acc[(0, 1)] == 16.0
        assert (2, 3) in acc
        assert (3, 2) not in acc
        assert acc.total() == 32.0
        assert len(acc) == 2

    def test_top_orders_by_bytes_then_pair(self):
        acc = self._make()
        acc.add_pairs([5], [1], [8.0])
        acc.add_pairs([0], [2], [8.0])
        acc.add_pairs([1], [4], [24.0])
        assert acc.top(2) == [((1, 4), 24.0), ((0, 2), 8.0)]
        assert acc.top(0) == []
        assert acc.top(10) == [((1, 4), 24.0), ((0, 2), 8.0), ((5, 1), 8.0)]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_oracle_under_random_streams(self, data):
        nranks = data.draw(st.integers(2, 24), label="nranks")
        threshold = data.draw(st.sampled_from((1, 4, 64)), label="threshold")
        acc = self._make(nranks, compact_threshold=threshold)
        oracle: dict[tuple[int, int], float] = {}
        n_chunks = data.draw(st.integers(1, 6), label="n_chunks")
        for c in range(n_chunks):
            n = data.draw(st.integers(0, 30), label=f"chunk{c}.n")
            src = data.draw(
                st.lists(st.integers(0, nranks - 1), min_size=n, max_size=n),
                label=f"chunk{c}.src",
            )
            dst = data.draw(
                st.lists(st.integers(0, nranks - 1), min_size=n, max_size=n),
                label=f"chunk{c}.dst",
            )
            words = data.draw(
                st.lists(st.integers(1, 512), min_size=n, max_size=n),
                label=f"chunk{c}.words",
            )
            nbytes = np.asarray(words, dtype=np.float64) * 8.0
            acc.add_pairs(
                np.asarray(src, dtype=np.int64),
                np.asarray(dst, dtype=np.int64),
                nbytes,
            )
            for s, d, b in zip(src, dst, nbytes):
                oracle[(s, d)] = oracle.get((s, d), 0.0) + b
            # interleave reads with appends: compaction must be transparent
            if data.draw(st.booleans(), label=f"chunk{c}.read"):
                assert acc.total() == sum(oracle.values())
        assert acc.to_dict() == oracle
        assert acc == oracle
        assert len(acc) == len(oracle)
        assert acc.total() == sum(oracle.values())
        expect_top = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        assert acc.top(10) == expect_top
        for pair, val in oracle.items():
            assert pair in acc
            assert acc[pair] == val
            assert acc.get(pair) == val
