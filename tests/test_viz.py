"""Tests for the terminal visualisation helpers."""

import numpy as np
import pytest

from repro.core import Allocation
from repro.grid import ProcessorGrid
from repro.tree import build_huffman
from repro.viz import (
    render_allocation,
    render_allocation_diff,
    render_field,
    sparkline,
)

GRID = ProcessorGrid(16, 16)


def alloc(weights):
    return Allocation.from_tree(build_huffman(weights), GRID, weights)


class TestRenderAllocation:
    def test_covers_grid(self):
        a = alloc({1: 0.5, 2: 0.5})
        out = render_allocation(a)
        body = out.splitlines()[1:-1]
        assert len(body) == 16 and all(len(r) == 16 for r in body)
        assert "." not in "".join(body)  # full tiling: no unused processors

    def test_glyph_areas_proportional(self):
        a = alloc({1: 0.25, 2: 0.75})
        body = "".join(render_allocation(a).splitlines()[1:-1])
        assert abs(body.count("1") - 64) <= 16
        assert abs(body.count("2") - 192) <= 16

    def test_legend(self):
        a = alloc({7: 1.0})
        assert "nest 7" in render_allocation(a)

    def test_downsampling(self):
        g = ProcessorGrid(128, 128)
        a = Allocation.from_tree(build_huffman({1: 1.0}), g, {1: 1.0})
        out = render_allocation(a, max_width=32)
        body = out.splitlines()[1:-1]
        assert all(len(r) <= 64 for r in body)
        assert "downsampled" in out.splitlines()[0]

    def test_empty_allocation(self):
        a = Allocation.from_tree(None, GRID)
        assert "empty" in render_allocation(a)


class TestRenderAllocationDiff:
    def test_shows_overlap_and_churn(self):
        old = alloc({1: 0.5, 2: 0.5})
        new = alloc({1: 0.6, 3: 0.4})
        out = render_allocation_diff(old, new)
        assert "OLD" in out and "NEW" in out
        assert "nest 2: deleted" in out
        assert "nest 3: created" in out
        assert "rect overlap" in out

    def test_grid_mismatch(self):
        other = Allocation.from_tree(
            build_huffman({1: 1.0}), ProcessorGrid(8, 8), {1: 1.0}
        )
        with pytest.raises(ValueError):
            render_allocation_diff(alloc({1: 1.0}), other)


class TestRenderField:
    def test_shape_and_shading(self):
        f = np.zeros((40, 80))
        f[20, 40] = 1.0
        out = render_field(f, width=40)
        lines = out.splitlines()
        assert all(len(l) == 40 for l in lines)
        assert "@" in out and " " in out

    def test_invert(self):
        f = np.linspace(0, 1, 100).reshape(10, 10)
        normal = render_field(f, width=10)
        inverted = render_field(f, width=10, invert=True)
        assert normal != inverted

    def test_constant_field(self):
        out = render_field(np.full((4, 4), 3.0), width=4)
        assert set("".join(out.splitlines())) == {" "}

    def test_invalid(self):
        with pytest.raises(ValueError):
            render_field(np.zeros(5))


class TestSparkline:
    def test_monotone_ramp(self):
        out = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert out[0] == "▁" and out[-1] == "█"

    def test_constant(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_long_series_bucketed(self):
        out = sparkline(list(range(1000)), width=50)
        assert len(out) == 50
