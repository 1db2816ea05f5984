"""Duration statistics shared by the recorder, the exporters and ``repro bench``.

Pure-python on purpose: the numbers feed regression baselines
(``BENCH_baseline.json``), so the aggregation must be deterministic and
free of dtype/platform variation.  Percentiles use linear interpolation
between closest ranks (the same convention as ``numpy.percentile``'s
default), which keeps medians exact for odd counts and intuitive for
even ones.

A :class:`SpanDigest` is the recorder's running summary of one span
name: count, total, min and max are exact over every duration ever
added, while the median and p95 are taken over the last
:data:`DIGEST_WINDOW` durations, so a digest's memory is fixed however
long a session runs.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

__all__ = [
    "DIGEST_WINDOW",
    "PhaseStats",
    "SpanDigest",
    "percentile",
    "summarise",
    "summarise_digests",
]

#: recent durations a :class:`SpanDigest` keeps for its median and p95
DIGEST_WINDOW = 128


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) of ``values``, linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


@dataclass(frozen=True)
class PhaseStats:
    """Aggregate wall-clock statistics of one phase (seconds)."""

    count: int
    total: float
    mean: float
    median: float
    p95: float
    min: float
    max: float

    def to_dict(self) -> dict[str, float]:
        """Flat JSON-ready mapping (counts included as floats-free ints)."""
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "median_s": self.median,
            "p95_s": self.p95,
            "min_s": self.min,
            "max_s": self.max,
        }


def summarise(durations: Sequence[float]) -> PhaseStats:
    """Aggregate a non-empty sequence of durations into :class:`PhaseStats`."""
    if not durations:
        raise ValueError("summarise needs at least one duration")
    vals = [float(v) for v in durations]
    return PhaseStats(
        count=len(vals),
        total=sum(vals),
        mean=sum(vals) / len(vals),
        median=percentile(vals, 50.0),
        p95=percentile(vals, 95.0),
        min=min(vals),
        max=max(vals),
    )


class SpanDigest:
    """Running duration statistics of one span name (seconds)."""

    __slots__ = ("count", "total", "min", "max", "recent")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.recent: deque[float] = deque(maxlen=DIGEST_WINDOW)

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration < self.min:
            self.min = duration
        if duration > self.max:
            self.max = duration
        self.recent.append(duration)

    def copy(self) -> SpanDigest:
        out = SpanDigest()
        out.count, out.total, out.min, out.max = self.count, self.total, self.min, self.max
        out.recent.extend(self.recent)
        return out

    def stats(self) -> PhaseStats:
        return summarise_digests([self])


def summarise_digests(digests: Iterable[SpanDigest]) -> PhaseStats:
    """One :class:`PhaseStats` over the digests of one span name.

    Count, total, min and max are exact; the median and p95 are taken
    over the digests' recent windows pooled together.
    """
    items = [d for d in digests if d.count]
    if not items:
        raise ValueError("summarise_digests needs at least one duration")
    count = sum(d.count for d in items)
    total = sum(d.total for d in items)
    pooled = sorted(v for d in items for v in d.recent)
    return PhaseStats(
        count=count,
        total=total,
        mean=total / count,
        median=percentile(pooled, 50.0),
        p95=percentile(pooled, 95.0),
        min=min(d.min for d in items),
        max=max(d.max for d in items),
    )
