"""Experiment harness: workloads, runners and per-table/figure reports.

Each table and figure of the paper's evaluation (§V) has a generator here;
the ``benchmarks/`` directory wraps them in pytest-benchmark entries that
print the reproduced rows next to the paper's published values.
"""

from repro.experiments.workloads import (
    Workload,
    synthetic_workload,
    mumbai_trace_workload,
    dynamical_trace_workload,
)
from repro.experiments.runner import (
    RunResult,
    WorkloadStepper,
    run_workload,
    run_both_strategies,
)
from repro.experiments.stats import BootstrapCI, bootstrap_improvement_ci
from repro.experiments.report import (
    table1_report,
    table2_report,
    table3_report,
    table4_report,
    fig8_report,
    fig9_report,
    fig10_fig11_report,
    fig12_report,
    real_trace_report,
    prediction_accuracy_report,
)

__all__ = [
    "Workload",
    "synthetic_workload",
    "mumbai_trace_workload",
    "dynamical_trace_workload",
    "BootstrapCI",
    "bootstrap_improvement_ci",
    "RunResult",
    "WorkloadStepper",
    "run_workload",
    "run_both_strategies",
    "table1_report",
    "table2_report",
    "table3_report",
    "table4_report",
    "fig8_report",
    "fig9_report",
    "fig10_fig11_report",
    "fig12_report",
    "real_trace_report",
    "prediction_accuracy_report",
]
