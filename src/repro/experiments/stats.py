"""Statistics for experiment reporting: bootstrap confidence intervals.

Improvement percentages from a handful of seeds deserve error bars.  The
paper reports point estimates; we add percentile-bootstrap confidence
intervals over per-step redistribution times so a reader can tell a
robust 15 % from a lucky one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import StepMetrics
from repro.util.rng import make_rng

__all__ = ["BootstrapCI", "bootstrap_improvement_ci"]


@dataclass(frozen=True)
class BootstrapCI:
    """A point estimate with a percentile-bootstrap interval."""

    estimate: float
    low: float
    high: float
    confidence: float
    n_resamples: int

    def __str__(self) -> str:
        pct = int(round(self.confidence * 100))
        return f"{self.estimate:.1f}% ({pct}% CI [{self.low:.1f}, {self.high:.1f}])"


def bootstrap_improvement_ci(
    baseline: list[StepMetrics],
    candidate: list[StepMetrics],
    attribute: str = "measured_redist",
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> BootstrapCI:
    """Bootstrap CI for the % improvement of ``candidate`` over ``baseline``.

    Steps are resampled *pairwise* (the two runs share the workload, so
    step i of each run saw the same nest configuration); the statistic is
    the improvement of summed ``attribute`` over the resample.
    """
    if len(baseline) != len(candidate):
        raise ValueError(
            f"runs differ in length: {len(baseline)} vs {len(candidate)}"
        )
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 10:
        raise ValueError(f"n_resamples too small: {n_resamples}")
    base = np.asarray([getattr(m, attribute) for m in baseline], dtype=np.float64)
    cand = np.asarray([getattr(m, attribute) for m in candidate], dtype=np.float64)
    n = len(base)
    if n == 0 or base.sum() == 0:
        return BootstrapCI(0.0, 0.0, 0.0, confidence, n_resamples)

    estimate = 100.0 * (base.sum() - cand.sum()) / base.sum()
    rng = make_rng(seed)
    idx = rng.integers(0, n, size=(n_resamples, n))
    base_sums = base[idx].sum(axis=1)
    cand_sums = cand[idx].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        stats = np.where(
            base_sums > 0, 100.0 * (base_sums - cand_sums) / base_sums, 0.0
        )
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(stats, [alpha, 1.0 - alpha])
    return BootstrapCI(
        estimate=float(estimate),
        low=float(low),
        high=float(high),
        confidence=confidence,
        n_resamples=n_resamples,
    )
