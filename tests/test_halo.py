"""Tests for the halo-exchange message model."""

import numpy as np
import pytest

from repro.grid import BlockDecomposition, ProcessorGrid, Rect
from repro.mpisim import CostModel, NetworkSimulator
from repro.mpisim.halo import halo_messages
from repro.topology import blue_gene_l

GRID = ProcessorGrid(16, 16)


class TestHaloMessages:
    def test_single_processor_no_messages(self):
        d = BlockDecomposition(30, 30, Rect(0, 0, 1, 1))
        assert len(halo_messages(d, GRID.px, 8.0)) == 0

    def test_two_processors_two_messages(self):
        d = BlockDecomposition(30, 30, Rect(0, 0, 2, 1))
        msgs = halo_messages(d, GRID.px, 8.0)
        assert len(msgs) == 2  # one each direction
        # each message: 1 column x 30 rows x 8 bytes
        assert np.allclose(msgs.nbytes, 30 * 8.0)

    def test_symmetry(self):
        d = BlockDecomposition(64, 48, Rect(2, 3, 4, 3))
        msgs = halo_messages(d, GRID.px, 8.0)
        pairs = {(int(s), int(r)): b for s, r, b in zip(msgs.src, msgs.dst, msgs.nbytes)}
        for (s, r), b in pairs.items():
            assert pairs[(r, s)] == b  # both directions, equal volume

    def test_message_count_interior(self):
        # w x h rect: 2*(w-1)*h vertical + 2*w*(h-1) horizontal messages
        d = BlockDecomposition(90, 90, Rect(0, 0, 3, 4))
        msgs = halo_messages(d, GRID.px, 8.0)
        assert len(msgs) == 2 * (2 * 4) + 2 * (3 * 3)

    def test_only_neighbour_ranks(self):
        d = BlockDecomposition(80, 80, Rect(1, 1, 4, 4))
        msgs = halo_messages(d, GRID.px, 8.0)
        sx, sy = GRID.coords(msgs.src)
        dx, dy = GRID.coords(msgs.dst)
        dist = np.abs(sx - dx) + np.abs(sy - dy)
        assert np.all(dist == 1)

    def test_halo_width_scales_volume(self):
        d = BlockDecomposition(90, 90, Rect(0, 0, 3, 3))
        v1 = halo_messages(d, GRID.px, 8.0, halo=1).total_bytes
        v2 = halo_messages(d, GRID.px, 8.0, halo=2).total_bytes
        assert v2 == pytest.approx(2 * v1)

    def test_validation(self):
        d = BlockDecomposition(30, 30, Rect(0, 0, 2, 2))
        with pytest.raises(ValueError):
            halo_messages(d, GRID.px, 8.0, halo=0)
        with pytest.raises(ValueError):
            halo_messages(d, GRID.px, 0.0)

    def test_skinny_blocks_clip_halo(self):
        # 2-point-wide nest on 2 procs: 1-point blocks clip a 3-wide halo
        d = BlockDecomposition(2, 10, Rect(0, 0, 2, 1))
        msgs = halo_messages(d, GRID.px, 1.0, halo=3)
        assert np.allclose(msgs.nbytes, 10.0)  # 1 column, not 3


class TestSkewCost:
    def test_skewed_rect_costs_more(self):
        """The Fig. 7 effect, measured on the wire: same nest, same
        processor count, skewed rectangle exchanges more and slower."""
        machine = blue_gene_l(256)
        cost = CostModel.for_machine(machine)
        sim = NetworkSimulator(machine.mapping, cost)
        square = BlockDecomposition(300, 300, Rect(0, 0, 4, 4))
        skewed = BlockDecomposition(300, 300, Rect(0, 0, 16, 1))
        m_sq = halo_messages(square, machine.grid[0], cost.bytes_per_point)
        m_sk = halo_messages(skewed, machine.grid[0], cost.bytes_per_point)
        assert m_sk.total_bytes > m_sq.total_bytes
        assert sim.bottleneck_time(m_sk) > sim.bottleneck_time(m_sq)

    def test_volume_formula(self):
        d = BlockDecomposition(120, 90, Rect(0, 0, 4, 3))
        msgs = halo_messages(d, GRID.px, 1.0)
        # blocks are 30x30: an interior processor sends 2*(30+30) = 120 points
        assert msgs.nbytes[msgs.src == GRID.rank(1, 1)].sum() == 120.0
