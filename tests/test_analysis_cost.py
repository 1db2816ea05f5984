"""Tests for the PDA cost model (§III scaling claims)."""

import numpy as np
import pytest

from repro.analysis import parallel_data_analysis, pda_cost_profile
from repro.analysis.parallel_nnc import count_distance_evaluations
from repro.analysis.records import SplitBatch
from repro.grid import ProcessorGrid


def files_for(grid: ProcessorGrid, cloudy_frac=0.2, size=12, seed=0):
    rng = np.random.default_rng(seed)
    q = np.zeros((grid.py * size, grid.px * size))
    o = np.full_like(q, 280.0)
    for by in range(grid.py):
        for bx in range(grid.px):
            if rng.uniform() < cloudy_frac:
                window = (slice(by * size, (by + 1) * size), slice(bx * size, (bx + 1) * size))
                q[window] = 0.01
                o[window] = 150.0
    bounds = (tuple(range(0, q.shape[1] + 1, size)), tuple(range(0, q.shape[0] + 1, size)))
    return SplitBatch(q, o, *bounds, np.zeros(grid.nprocs, dtype=bool))


class TestPDACostProfile:
    def test_total_points_constant_in_n(self):
        grid = ProcessorGrid(8, 8)
        files = files_for(grid)
        p1 = pda_cost_profile(files, grid, 1)
        p16 = pda_cost_profile(files, grid, 16)
        assert p1.scan_points_total == p16.scan_points_total

    def test_max_rank_work_decreases(self):
        grid = ProcessorGrid(16, 16)
        files = files_for(grid)
        prev = None
        for n in (1, 4, 16, 64):
            p = pda_cost_profile(files, grid, n)
            if prev is not None:
                assert p.scan_points_max_rank <= prev
            prev = p.scan_points_max_rank

    def test_speedup_grows(self):
        # large files: the parallel scan dominates and speedup is real
        grid = ProcessorGrid(16, 16)
        files = files_for(grid, size=40)
        serial = pda_cost_profile(files, grid, 1)
        p64 = pda_cost_profile(files, grid, 64)
        assert p64.speedup_vs(serial) > 4.0

    def test_amdahl_tail_caps_speedup(self):
        # tiny files: the root-side serial NNC tail bounds the speedup
        grid = ProcessorGrid(16, 16)
        files = files_for(grid, size=6)
        serial = pda_cost_profile(files, grid, 1)
        p64 = pda_cost_profile(files, grid, 64)
        cap = serial.total_time / serial.cluster_time
        assert p64.speedup_vs(serial) <= cap + 1e-9

    def test_gathered_elements_counts_cloudy_only(self):
        grid = ProcessorGrid(8, 8)
        files = files_for(grid, cloudy_frac=0.0)
        p = pda_cost_profile(files, grid, 4)
        assert p.gathered_elements == 0 and p.cluster_ops == 0

    def test_corrupt_tile_is_not_gathered(self):
        # PDA skips a tile whose fields are not finite; the profile counts
        # and clusters exactly the tiles PDA gathers
        grid = ProcessorGrid(2, 2)
        tiles = np.array([[1.0, 2.0], [3.0, 4.0]])
        q = np.repeat(np.repeat(tiles, 4, axis=0), 4, axis=1)
        o = np.full_like(q, 150.0)  # every tile has low OLR
        q[1, 1] = np.nan  # one NaN in tile 0
        batch = SplitBatch(q, o, (0, 4, 8), (0, 4, 8), np.zeros(4, dtype=bool))
        result = parallel_data_analysis(batch, grid, 2)
        assert result.n_files_corrupt == 1
        p = pda_cost_profile(batch, grid, 2)
        assert p.gathered_elements == result.gathered_items == 3
        assert p.cluster_ops == count_distance_evaluations(result.summaries)
        assert p.cluster_ops > 0

    @pytest.mark.parametrize(
        "sim_grid, n_analysis",
        [
            (ProcessorGrid(2, 2), 0),
            (ProcessorGrid(2, 2), 5),
            (ProcessorGrid(2, 2), 9),
            (ProcessorGrid(2, 2), 16),
            (ProcessorGrid(4, 4), 4),  # one rank would read every point
        ],
    )
    def test_refuses_what_pda_refuses(self, sim_grid, n_analysis):
        batch = files_for(ProcessorGrid(2, 2), cloudy_frac=0.5)
        for analyse in (parallel_data_analysis, pda_cost_profile):
            with pytest.raises(ValueError):
                analyse(batch, sim_grid, n_analysis)

    def test_gather_bytes(self):
        grid = ProcessorGrid(8, 8)
        files = files_for(grid, cloudy_frac=1.0)
        p = pda_cost_profile(files, grid, 4)
        assert p.gathered_elements == 64

    def test_times_positive(self):
        grid = ProcessorGrid(8, 8)
        p = pda_cost_profile(files_for(grid), grid, 8)
        assert p.scan_time > 0
        assert p.total_time >= p.scan_time

    def test_root_tail_small_at_paper_scale(self):
        # the paper's claim: with 1024 split files, <200 elements typically
        # reach the root and the serial NNC tail is sub-second
        grid = ProcessorGrid(32, 32)
        files = files_for(grid, cloudy_frac=0.15, size=17)
        p = pda_cost_profile(files, grid, 64)
        assert p.gathered_elements < 200
        assert p.cluster_time < 1.0
