"""Compare scratch, diffusion and dynamic strategies over synthetic churn.

Runs the paper's synthetic workload (70 reconfigurations, 2–9 nests of
181x181 … 361x361 fine points) under all three strategies on a chosen
machine and prints the §V summary: total redistribution time, total
execution time, average hop-bytes and average sender/receiver overlap.

Run:  python examples/strategy_comparison.py  [machine] [seed]
      machine ∈ {bgl-256, bgl-512, bgl-1024, fist-256}, default bgl-1024
"""

import sys

from repro.experiments import synthetic_workload
from repro.experiments.runner import ExperimentContext, run_workload
from repro.core import DiffusionStrategy, ScratchStrategy, summarize_improvement
from repro.topology import MACHINES
from repro.util.tables import format_table


def main(machine_key: str = "bgl-1024", seed: int = 0) -> None:
    machine = MACHINES[machine_key]
    ctx = ExperimentContext(machine)
    workload = synthetic_workload(seed=seed, n_steps=70)
    counts = workload.nest_counts()
    print(
        f"machine {machine.name} ({machine.network_kind}); synthetic workload "
        f"seed={seed}: {workload.n_steps} reconfigurations, "
        f"{min(counts)}-{max(counts)} nests\n"
    )

    strategies = [ScratchStrategy(), DiffusionStrategy(), ctx.make_dynamic_strategy()]
    runs = [run_workload(workload, s, ctx) for s in strategies]

    rows = []
    for run in runs:
        rows.append(
            (
                run.strategy,
                f"{run.total('measured_redist'):.3f} s",
                f"{run.total('exec_actual'):.1f} s",
                f"{run.mean('hop_bytes_avg', nonzero_only=True):.2f}",
                f"{100 * run.mean('overlap_fraction'):.1f}%",
            )
        )
    print(format_table(
        ["Strategy", "Σ redistribution", "Σ execution", "avg hop-bytes", "avg overlap"],
        rows,
        title="Strategy comparison",
    ))

    scratch, diffusion = runs[0], runs[1]
    imp = summarize_improvement(scratch.metrics, diffusion.metrics)
    print(
        f"\ndiffusion reduces redistribution time by {imp:.1f}% over scratch "
        f"(paper: 10-25% depending on machine)"
    )


if __name__ == "__main__":
    main(
        sys.argv[1] if len(sys.argv) > 1 else "bgl-1024",
        int(sys.argv[2]) if len(sys.argv) > 2 else 0,
    )
