"""The adaptation audit trail: why a strategy was chosen, and was it right.

The paper's dynamic strategy (§IV-D) selects scratch or diffusion at every
adaptation point from *predicted* execution + redistribution times; the
evaluation (§V-F) then judges those predictions against observation.  Our
runs previously recorded only *that* a strategy ran — this module records
*why*: one :class:`AdaptationAudit` per adaptation point holding the
predicted scratch cost, the predicted diffusion cost, the strategy actually
applied, and the costs observed afterwards.  The :class:`AuditTrail`
aggregates those records into the §V-F quantities — Pearson correlation of
predicted vs. actual execution time, mean absolute relative error of the
redistribution prediction — without re-running anything.

The trail is deliberately dumb about *where* predictions come from: the
experiment runner feeds it plain floats (from :mod:`repro.perfmodel` via
:func:`repro.core.dynamic.predicted_costs`, or the step's own plan for a
candidate equal to the applied allocation), which keeps this module
import-light and free of cycles with ``core``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass

__all__ = ["AdaptationAudit", "AuditTrail", "RecoveryDecision", "pearson"]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (NaN for degenerate inputs).

    Pure python on purpose (``repro.obs`` carries no numpy dependency):
    the audit trail must aggregate identically everywhere the baselines
    are compared.
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
class AdaptationAudit:
    """One adaptation point's full decision record.

    ``strategy`` names the strategy driving the run; ``chosen`` names the
    allocation actually applied at this point (for the dynamic strategy
    the two differ: ``strategy`` is ``"dynamic"`` and ``chosen`` is
    ``"scratch"`` or ``"diffusion"``).  All times are seconds.
    """

    step: int
    strategy: str
    chosen: str
    n_nests: int
    predicted_scratch_exec: float
    predicted_scratch_redist: float
    predicted_diffusion_exec: float
    predicted_diffusion_redist: float
    predicted_exec: float  # the applied allocation's predicted execution
    predicted_redist: float  # the applied plan's §IV-C1 prediction
    observed_exec: float  # ground-truth oracle execution time
    observed_redist: float  # network-simulated ("measured") time

    @property
    def predicted_scratch(self) -> float:
        """Predicted total cost of the scratch candidate."""
        return self.predicted_scratch_exec + self.predicted_scratch_redist

    @property
    def predicted_diffusion(self) -> float:
        """Predicted total cost of the diffusion candidate."""
        return self.predicted_diffusion_exec + self.predicted_diffusion_redist

    @property
    def exec_error(self) -> float:
        """Signed prediction error of the execution time (pred - observed)."""
        return self.predicted_exec - self.observed_exec

    @property
    def redist_error(self) -> float:
        """Signed prediction error of the redistribution time."""
        return self.predicted_redist - self.observed_redist

    @property
    def exec_rel_error(self) -> float:
        """|pred - observed| / observed for execution (NaN when observed=0)."""
        if self.observed_exec == 0:
            return float("nan")
        return abs(self.exec_error) / self.observed_exec

    @property
    def redist_rel_error(self) -> float:
        """|pred - observed| / observed for redistribution (NaN at 0)."""
        if self.observed_redist == 0:
            return float("nan")
        return abs(self.redist_error) / self.observed_redist

    def to_dict(self) -> dict[str, object]:
        """Flat JSON-ready mapping including the derived error fields."""
        payload: dict[str, object] = asdict(self)
        payload["predicted_scratch"] = self.predicted_scratch
        payload["predicted_diffusion"] = self.predicted_diffusion
        payload["exec_error"] = self.exec_error
        payload["redist_error"] = self.redist_error
        return payload


@dataclass(frozen=True)
class RecoveryDecision:
    """One fault-recovery decision, recorded beside the strategy audits.

    Written by :func:`repro.faults.recovery.recover_from_rank_failure` so a
    post-mortem can see *why* the grid shrank and which nests paid for it —
    the recovery analogue of :class:`AdaptationAudit`'s "why this strategy".
    Grids are rendered as ``"PXxPY"`` strings to keep the record
    JSON-flat like the rest of the trail.
    """

    step: int
    dead_ranks: tuple[int, ...]
    old_grid: str  # "4x4"
    new_grid: str  # "4x3"
    retained_nests: tuple[int, ...]
    dropped_nests: tuple[int, ...]  # unrecoverable: excised via diffusion edit
    restored_from_checkpoint: tuple[int, ...]
    invariants_ok: bool

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = asdict(self)
        payload["dead_ranks"] = list(self.dead_ranks)
        payload["retained_nests"] = list(self.retained_nests)
        payload["dropped_nests"] = list(self.dropped_nests)
        payload["restored_from_checkpoint"] = list(self.restored_from_checkpoint)
        return payload


class AuditTrail:
    """Accumulates :class:`AdaptationAudit` records across runs.

    One trail may span several strategies run over the same workload (the
    ``repro compare`` path); slicing by strategy is explicit via
    :meth:`for_strategy`.  Fault recoveries are recorded on the side
    (:meth:`record_recovery`) so the §V-F aggregations stay untouched by
    degraded-mode points.
    """

    def __init__(self) -> None:
        self.records: list[AdaptationAudit] = []
        self.recoveries: list[RecoveryDecision] = []

    def record(self, audit: AdaptationAudit) -> AdaptationAudit:
        """Append one record; returns it for chaining."""
        self.records.append(audit)
        return audit

    def record_recovery(self, decision: RecoveryDecision) -> RecoveryDecision:
        """Append one recovery decision; returns it for chaining."""
        self.recoveries.append(decision)
        return decision

    def __len__(self) -> int:
        return len(self.records)

    def for_strategy(self, strategy: str) -> list[AdaptationAudit]:
        """Records of runs driven by ``strategy``."""
        return [r for r in self.records if r.strategy == strategy]

    def strategies(self) -> list[str]:
        """Distinct run strategies, in first-seen order."""
        seen: list[str] = []
        for r in self.records:
            if r.strategy not in seen:
                seen.append(r.strategy)
        return seen

    # -- §V-F aggregations ----------------------------------------------

    def exec_correlation(self, strategy: str | None = None) -> float:
        """Pearson r of predicted vs. observed execution times."""
        records = self.records if strategy is None else self.for_strategy(strategy)
        return pearson(
            [r.predicted_exec for r in records],
            [r.observed_exec for r in records],
        )

    def mean_abs_rel_error(
        self, attribute: str = "exec_rel_error", strategy: str | None = None
    ) -> float:
        """Mean of a relative-error attribute, skipping NaN (no-data) steps."""
        records = self.records if strategy is None else self.for_strategy(strategy)
        values = [
            v for r in records if not math.isnan(v := float(getattr(r, attribute)))
        ]
        return sum(values) / len(values) if values else float("nan")

    def choice_counts(self, strategy: str | None = None) -> dict[str, int]:
        """How often each allocation was the one applied."""
        records = self.records if strategy is None else self.for_strategy(strategy)
        counts: dict[str, int] = {}
        for r in records:
            counts[r.chosen] = counts.get(r.chosen, 0) + 1
        return counts

    # -- rendering ------------------------------------------------------

    def accuracy_report(self, title: str = "adaptation audit trail") -> str:
        """§V-F-style accuracy summary, one row per run strategy."""
        from repro.util.tables import format_table

        rows = []
        for strategy in self.strategies():
            records = self.for_strategy(strategy)
            choices = self.choice_counts(strategy)
            chosen = ", ".join(f"{k}:{v}" for k, v in sorted(choices.items()))
            rows.append(
                (
                    strategy,
                    str(len(records)),
                    f"{self.exec_correlation(strategy):.3f}",
                    f"{100 * self.mean_abs_rel_error('exec_rel_error', strategy):.1f}%",
                    f"{100 * self.mean_abs_rel_error('redist_rel_error', strategy):.1f}%",
                    chosen,
                )
            )
        return format_table(
            [
                "run strategy",
                "points",
                "exec Pearson r",
                "exec MARE",
                "redist MARE",
                "applied allocations",
            ],
            rows,
            title=f"{title} — prediction accuracy (paper §V-F: r ≈ 0.9)",
        )

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

    def to_jsonl(self) -> str:
        """Every record as JSON Lines, in recording order."""
        return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in self.records)
