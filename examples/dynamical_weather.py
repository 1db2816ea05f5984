"""Emergent convection: the dynamical moisture model end to end.

Unlike the kinematic scenarios, nothing here is scripted — convective
systems emerge where the monsoon jet and a drifting cyclone push moist air
across unstable pockets, and the full pipeline (detection → tracking →
diffusion reallocation) rides on top.  The example renders the OLR field
as it evolves and reports the reallocation metrics.

Run:  python examples/dynamical_weather.py  [n_steps]
"""

import sys

from repro.core import AdaptationStepper, DiffusionStrategy, ProcessorReallocator
from repro.perfmodel import ExecTimePredictor, ExecutionOracle, ProfileTable
from repro.topology import blue_gene_l
from repro.viz import render_field, sparkline
from repro.wrf import NestTracker, detect_nests
from repro.wrf.dynamics import DynamicalModel
from repro.wrf.model import DomainConfig


def main(n_steps: int = 40) -> None:
    machine = blue_gene_l(1024)
    config = DomainConfig()
    model = DynamicalModel(config, seed=0)
    tracker = NestTracker(refinement=config.nest_refinement)
    predictor = ExecTimePredictor(ProfileTable(ExecutionOracle()))
    stepper = AdaptationStepper(
        ProcessorReallocator(machine, DiffusionStrategy(), predictor)
    )

    print(
        f"dynamical moisture model on {config.nx}x{config.ny} @ "
        f"{config.resolution_km:.0f} km; machine {machine.name}\n"
    )

    redist_series = []
    for t in range(n_steps):
        model.step()
        found = detect_nests(model, tracker)
        plan = stepper.step(found.nests).reallocation.plan
        if not found.nests:
            print(f"[t={t:3d}] spinning up (no organised systems yet)")
            redist_series.append(0.0)
            continue
        ms = plan.measured_time * 1e3 if plan else 0.0
        redist_series.append(ms)
        print(
            f"[t={t:3d}] systems={len(found.rois)} "
            f"+{len(found.spawned)} ~{len(found.retained)} -{len(found.deleted)} "
            f"| redist {ms:6.1f} ms"
        )

    _, olr = model.fields()
    print("\nOLR (dark = deep convection), final step:")
    print(render_field(olr, width=72, invert=True))
    print(f"\nredistribution per step (ms): {sparkline(redist_series)}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 40)
