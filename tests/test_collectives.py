"""Tests for the collective round schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpisim import (
    CostModel,
    MessageSet,
    NetworkSimulator,
    schedule_concurrent,
    schedule_direct,
    schedule_pairwise,
    scheduled_time,
)
from repro.topology import blue_gene_l


def msgset(triples):
    if not triples:
        return MessageSet(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    s, d, b = zip(*triples)
    return MessageSet(
        np.asarray(s, dtype=np.int64),
        np.asarray(d, dtype=np.int64),
        np.asarray(b, dtype=np.float64),
    )


@pytest.fixture(scope="module")
def sim():
    m = blue_gene_l(256)
    return NetworkSimulator(m.mapping, CostModel.for_machine(m))


SAMPLE = [(0, 1, 1e5), (0, 5, 2e5), (3, 4, 1e5), (7, 2, 3e5), (9, 10, 1e5)]


class TestSchedules:
    def test_concurrent_single_round(self):
        sched = schedule_concurrent(msgset(SAMPLE))
        assert len(sched.rounds) == 1
        sched.validate_against(msgset(SAMPLE))

    def test_direct_partitions(self):
        msgs = msgset(SAMPLE)
        sched = schedule_direct(msgs, 256)
        sched.validate_against(msgs)
        assert sched.total_bytes == msgs.total_bytes

    def test_direct_one_destination_per_sender_per_round(self):
        msgs = msgset(SAMPLE + [(0, 9, 1e5), (0, 17, 1e5)])
        sched = schedule_direct(msgs, 256)
        for rnd in sched.rounds:
            senders = rnd.src.tolist()
            assert len(senders) == len(set(senders)), "sender repeated in a round"

    def test_pairwise_partitions(self):
        msgs = msgset(SAMPLE)
        sched = schedule_pairwise(msgs, 256)
        sched.validate_against(msgs)

    def test_pairwise_one_partner_per_round(self):
        msgs = msgset(SAMPLE + [(0, 9, 1e5)])
        sched = schedule_pairwise(msgs, 256)
        for rnd in sched.rounds:
            endpoints = rnd.src.tolist() + rnd.dst.tolist()
            assert len(endpoints) == len(set(endpoints)), (
                "an endpoint appears twice in a pairwise round"
            )

    def test_pairwise_requires_power_of_two(self):
        with pytest.raises(ValueError):
            schedule_pairwise(msgset(SAMPLE), 100)

    def test_empty_schedules(self):
        empty = msgset([])
        assert len(schedule_concurrent(empty).rounds) == 0
        assert len(schedule_direct(empty, 16).rounds) == 0
        assert len(schedule_pairwise(empty, 16).rounds) == 0

    def test_direct_validation(self):
        with pytest.raises(ValueError):
            schedule_direct(msgset(SAMPLE), 0)

    def test_validate_against_catches_loss(self):
        msgs = msgset(SAMPLE)
        broken = schedule_concurrent(msgset(SAMPLE[:-1]))
        with pytest.raises(AssertionError):
            broken.validate_against(msgs)

    @given(
        st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 255), st.floats(1e3, 1e6)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, triples):
        triples = [(s, d, b) for s, d, b in triples if s != d]
        # aggregate duplicate pairs (MessageSet allows them, but the
        # partition comparison is cleaner with unique pairs)
        agg = {}
        for s, d, b in triples:
            agg[(s, d)] = agg.get((s, d), 0.0) + b
        triples = [(s, d, b) for (s, d), b in agg.items()]
        if not triples:
            return
        msgs = msgset(triples)
        for sched in (
            schedule_direct(msgs, 256),
            schedule_pairwise(msgs, 256),
        ):
            sched.validate_against(msgs)


class TestScheduledTime:
    def test_concurrent_matches_bottleneck(self, sim):
        msgs = msgset(SAMPLE)
        sched = schedule_concurrent(msgs)
        assert scheduled_time(sched, sim) == pytest.approx(
            sim.bottleneck_time(msgs)
        )

    def test_rounds_cost_at_least_concurrent(self, sim):
        msgs = msgset(SAMPLE)
        concurrent = scheduled_time(schedule_concurrent(msgs), sim)
        direct = scheduled_time(schedule_direct(msgs, 256), sim)
        assert direct >= concurrent * 0.99

    def test_round_latency_adds_up(self, sim):
        msgs = msgset(SAMPLE)
        sched = schedule_direct(msgs, 256)
        base = scheduled_time(sched, sim)
        with_lat = scheduled_time(sched, sim, round_latency=1e-3)
        assert with_lat == pytest.approx(base + len(sched.rounds) * 1e-3)

    def test_negative_latency_rejected(self, sim):
        with pytest.raises(ValueError):
            scheduled_time(schedule_concurrent(msgset(SAMPLE)), sim, -1.0)
