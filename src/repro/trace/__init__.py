"""Experiment persistence: save/load workloads, metrics and run results.

Long sweeps (the 5-seed Table IV runs, the 100-step Mumbai trace) are worth
keeping: this package serialises workloads and per-step metrics to JSON and
CSV so results can be archived, diffed across code versions, and re-plotted
without re-running the simulator.

* :func:`save_workload` / :func:`load_workload` — the nest-configuration
  stream (JSON), round-trip exact;
* :func:`save_run` — a run's per-step metrics (JSON);
* :func:`metrics_to_csv` — flat CSV for external tooling.
"""

from repro.trace.io import (
    save_workload,
    load_workload,
    save_run,
    metrics_to_csv,
)

__all__ = [
    "save_workload",
    "load_workload",
    "save_run",
    "metrics_to_csv",
]
