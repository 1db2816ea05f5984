"""The fault-recovery log, and the Pearson correlation of the §V-F report.

The per-adaptation-point record of a run is its
:class:`~repro.core.metrics.StepMetrics` list: predicted and observed
execution and redistribution times plus the allocation applied.  The
§V-F accuracy table is computed from those records
(:func:`repro.experiments.report.accuracy_report`) with :func:`pearson`.

What a run's metrics cannot say is why a fault shrank the machine: the
:class:`AuditTrail` logs one :class:`RecoveryDecision` per fault
recovery, written by
:func:`~repro.faults.recovery.recover_from_rank_failure`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = ["AuditTrail", "RecoveryDecision", "pearson"]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (NaN for degenerate inputs).

    Pure python on purpose: a deterministic sum, so the §V-F table
    aggregates identically everywhere the baselines are compared.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"series lengths differ: {n} vs {len(ys)}")
    if n < 2:
        return float("nan")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0.0 or var_y <= 0.0:
        return float("nan")
    return cov / math.sqrt(var_x * var_y)


@dataclass(frozen=True)
class RecoveryDecision:
    """One fault-recovery decision.

    Written by :func:`repro.faults.recovery.recover_from_rank_failure` so a
    post-mortem can see *why* the grid shrank and which nests paid for it.
    Grids are rendered as ``"PXxPY"`` strings to keep the record
    JSON-flat.
    """

    step: int
    dead_ranks: tuple[int, ...]
    old_grid: str  # "4x4"
    new_grid: str  # "4x3"
    retained_nests: tuple[int, ...]
    dropped_nests: tuple[int, ...]  # unrecoverable: excised via diffusion edit
    restored_from_checkpoint: tuple[int, ...]
    invariants_ok: bool


class AuditTrail:
    """The recovery log of one run: every :class:`RecoveryDecision`, in order."""

    def __init__(self) -> None:
        self.recoveries: list[RecoveryDecision] = []

    def record_recovery(self, decision: RecoveryDecision) -> RecoveryDecision:
        """Append one recovery decision; returns it for chaining."""
        self.recoveries.append(decision)
        return decision

    def recovery_report(self, title: str = "fault recoveries") -> str:
        """One row per recovery decision (empty string when none happened)."""
        from repro.util.tables import format_table

        if not self.recoveries:
            return ""
        rows = [
            (
                str(r.step),
                ",".join(map(str, r.dead_ranks)),
                f"{r.old_grid} → {r.new_grid}",
                str(len(r.retained_nests)),
                ",".join(map(str, r.dropped_nests)) or "-",
                ",".join(map(str, r.restored_from_checkpoint)) or "-",
                "ok" if r.invariants_ok else "VIOLATED",
            )
            for r in self.recoveries
        ]
        return format_table(
            [
                "step",
                "dead ranks",
                "grid",
                "retained",
                "dropped",
                "from checkpoint",
                "invariants",
            ],
            rows,
            title=title,
        )
