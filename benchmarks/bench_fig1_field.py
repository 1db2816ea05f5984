"""Fig. 1 — "Tall clouds over the Indian region during the 2005 monsoon".

The paper's motivating figure is a WRF QCLOUD snapshot with several dark
(high cloud water) regions at once.  The reproduction renders the same
artefact from the Mumbai-2005-like scenario: a field map whose dark
regions are the multiple simultaneous phenomena the whole paper is about.
The assertions check the motivating premise — multiple disjoint organised
systems exist simultaneously — and the benchmark times one full-domain
field synthesis.
"""

import pytest

from repro.analysis import parallel_data_analysis
from repro.viz import render_field
from repro.wrf.fields import qcloud_field
from repro.wrf.model import WrfLikeModel
from repro.wrf.scenario import mumbai_2005_scenario


@pytest.fixture(scope="module")
def snapshot():
    scenario = mumbai_2005_scenario(seed=2005, n_steps=13)
    model = WrfLikeModel(scenario.config, scenario.birth_fn, scenario.initial_systems)
    for _ in range(13):
        model.step()
    return model, scenario.config


def test_fig1(benchmark, report_sink, snapshot):
    model, config = snapshot
    benchmark(qcloud_field, config.nx, config.ny, model.systems)

    qcloud, olr = model.fields()
    pda = parallel_data_analysis(model.write_split_files(), config.sim_grid, 64)
    # the premise: multiple simultaneous organised systems
    assert len(pda.rectangles) >= 3
    art = render_field(olr, width=72, invert=True)
    text = "\n".join(
        [
            "Fig. 1 — tall clouds over the Indian region (dark = high cloud water)",
            f"domain {config.nx}x{config.ny} @ {config.resolution_km:.0f} km, "
            f"{len(model.systems)} organised systems, "
            f"{len(pda.rectangles)} detected regions of interest",
            "",
            art,
        ]
    )
    report_sink("fig1", text)
