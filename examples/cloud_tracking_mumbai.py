"""Track organised cloud clusters through a Mumbai-2005-like episode.

The full pipeline of the paper, end to end:

    WRF-like cloud fields  →  per-rank split files  →  parallel data
    analysis (Algorithm 1)  →  nearest-neighbour clustering (Algorithm 2)
    →  regions of interest  →  nest tracking  →  tree-based hierarchical
    diffusion reallocation  →  redistribution metrics

Every adaptation point prints the detected regions, the nest churn
(spawned / retained / deleted) and the cost of moving the retained nests'
data to their new processor rectangles.

Run:  python examples/cloud_tracking_mumbai.py  [n_steps]
"""

import sys

from repro.core import AdaptationStepper, DiffusionStrategy, ProcessorReallocator
from repro.mpisim import CostModel
from repro.perfmodel import ExecTimePredictor, ExecutionOracle, ProfileTable
from repro.topology import blue_gene_l
from repro.wrf import NestTracker, WrfLikeModel, detect_nests, mumbai_2005_scenario


def main(n_steps: int = 30) -> None:
    machine = blue_gene_l(1024)
    scenario = mumbai_2005_scenario(seed=2005, n_steps=n_steps)
    config = scenario.config
    model = WrfLikeModel(config, scenario.birth_fn, scenario.initial_systems)
    tracker = NestTracker(refinement=config.nest_refinement)
    predictor = ExecTimePredictor(ProfileTable(ExecutionOracle()))
    realloc = ProcessorReallocator(
        machine, DiffusionStrategy(), predictor, CostModel.for_machine(machine)
    )
    stepper = AdaptationStepper(realloc)

    print(f"domain {config.nx}x{config.ny} @ {config.resolution_km:.0f} km, "
          f"simulation grid {config.sim_grid}, machine {machine.name}")
    print(f"adaptation points: {n_steps} (one per 2 simulated minutes)\n")

    for step in range(n_steps):
        model.step()
        found = detect_nests(model, tracker)
        plan = stepper.step(found.nests).reallocation.plan
        if not found.nests:
            print(f"[t={step:3d}] no organised cloud systems detected")
            continue
        line = (
            f"[t={step:3d}] systems={len(model.systems)} rois={len(found.rois)} "
            f"nests: +{len(found.spawned)} ~{len(found.retained)} -{len(found.deleted)}"
        )
        if plan is not None and plan.moves:
            line += (
                f" | moved {plan.network_bytes / 1e6:7.1f} MB"
                f" overlap {100 * plan.overlap_fraction:5.1f}%"
                f" hop-bytes {plan.hop_bytes_avg:4.2f}"
                f" redist {plan.measured_time * 1e3:6.1f} ms"
            )
        print(line)

    print("\nfinal allocation:")
    for nid, start, dims in realloc.allocation.table_rows():
        nest = tracker.live[nid]
        print(
            f"  nest {nid}: ROI {nest.roi} ({nest.nx}x{nest.ny} fine points) "
            f"on processors [{start} +{dims}]"
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 30)
