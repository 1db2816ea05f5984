"""§III scaling study — the parallel data analysis across analysis ranks.

The paper justifies PDA's design with two observations: the per-file scan
dominates and parallelises ("the analysis of QCLOUD values in each split
file is done in parallel because this is the most time-consuming step"),
while the root-side serial NNC stays tiny ("less than 200 [elements] for
most of the time steps ... less than a second").  The study sweeps the
number of analysis processes ``N`` on a 1024-split-file Mumbai snapshot
and reports per-phase work and end-to-end speedup; the benchmark times the
actual Algorithm-1 implementation at ``N = 64`` (the configuration the
real-trace experiments use).
"""

import pytest

from repro.analysis import parallel_data_analysis, pda_cost_profile
from repro.util.tables import format_table
from repro.wrf.model import WrfLikeModel
from repro.wrf.scenario import mumbai_2005_scenario


@pytest.fixture(scope="module")
def snapshot():
    scenario = mumbai_2005_scenario(seed=2005, n_steps=13)
    model = WrfLikeModel(scenario.config, scenario.birth_fn, scenario.initial_systems)
    for _ in range(13):
        model.step()
    return model.write_split_files(), scenario.config.sim_grid


def test_pda_scaling(benchmark, report_sink, snapshot):
    files, sim_grid = snapshot
    benchmark(parallel_data_analysis, files, sim_grid, 64)

    serial = pda_cost_profile(files, sim_grid, 1)
    rows = []
    profiles = {}
    for n in (1, 4, 16, 64, 256):
        p = pda_cost_profile(files, sim_grid, n)
        profiles[n] = p
        rows.append(
            (
                n,
                p.scan_points_max_rank,
                f"{p.scan_time * 1e3:.1f} ms",
                p.gathered_elements,
                f"{p.cluster_time * 1e3:.1f} ms",
                f"{p.speedup_vs(serial):.1f}x",
            )
        )
    text = format_table(
        ["N", "max points/rank", "scan time", "root elements", "NNC time", "speedup"],
        rows,
        title=f"PDA scaling over {len(files)} split files (Mumbai snapshot)",
    )
    # the paper's regime: a couple hundred elements reach the root (the
    # paper reports "<200 for most of the time steps"; our Mumbai episode
    # ranges 92-236 across steps) and the serial NNC tail is sub-second
    assert profiles[64].gathered_elements < 250
    assert profiles[64].cluster_time < 1.0
    # the scan phase (the part the paper parallelises) scales near-linearly
    assert serial.scan_time / profiles[64].scan_time > 30.0
    # the result itself is N-independent (tested in unit tests; spot-check)
    r1 = parallel_data_analysis(files, sim_grid, 1)
    r64 = parallel_data_analysis(files, sim_grid, 64)
    assert sorted(map(str, r1.rectangles)) == sorted(map(str, r64.rectangles))
    report_sink("pda_scaling", text)
