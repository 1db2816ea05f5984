"""Fig. 9 — nearest-neighbour clustering variants.

Published: clustering with the 2-hop-only criterion and no mean-deviation
guard produces spatially overlapping clusters (Fig. 9a); the paper's NNC
(1-hop before 2-hop, 30 % mean guard) produces non-overlapping clusters
(Fig. 9b).  The comparison runs on a detection snapshot of the
Mumbai-2005-like simulation; the benchmark times one full NNC pass.
"""

from repro.analysis import NNCConfig, nearest_neighbour_clustering
from repro.experiments import fig9_report
from repro.analysis.pda import parallel_data_analysis
from repro.wrf.model import WrfLikeModel
from repro.wrf.scenario import mumbai_2005_scenario


def test_fig9(benchmark, report_sink):
    scenario = mumbai_2005_scenario(seed=2005, n_steps=13)
    model = WrfLikeModel(scenario.config, scenario.birth_fn, scenario.initial_systems)
    for _ in range(13):
        model.step()
    pda = parallel_data_analysis(model.write_split_files(), scenario.config.sim_grid, 64)
    benchmark(nearest_neighbour_clustering, pda.summaries, NNCConfig())

    report = fig9_report(seed=2005, step=26)
    assert report.nnc_clusters >= 1
    # snapshot: the paper's NNC keeps clusters disjoint where the baseline
    # overlaps (Fig 9a vs 9b)
    assert report.nnc_overlapping_pairs == 0
    assert report.simple_overlapping_pairs > 0
    # and over the whole episode NNC overlaps strictly less in aggregate
    assert report.nnc_total_pairs < report.simple_total_pairs
    report_sink("fig9", report.text)
