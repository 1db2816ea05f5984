"""Duration statistics shared by the recorder, the exporters and ``repro bench``.

:func:`percentile` and :func:`summarise` are pure Python on purpose:
they feed regression baselines (``BENCH_baseline.json``), so the
aggregation must be deterministic and free of dtype/platform variation.
Percentiles use linear interpolation between closest ranks (the same
convention as ``numpy.percentile``'s default), which keeps medians exact
for odd counts and intuitive for even ones.

A :class:`SpanDigest` is the recorder's running summary of one span
name over every duration ever added: an exact count, total, min and
max, plus the counts of :data:`DIGEST_BUCKETS` log-spaced buckets,
:data:`BUCKETS_PER_DOUBLING` per doubling from :data:`DIGEST_LOWEST_S`
up (about 1 ns to 1024 s; durations outside count in the end buckets).
A digest's memory is fixed however long a session runs, and digests
merge by adding their bucket counts.  A quantile is read from the
cumulative counts as the geometric midpoint of the bucket holding its
rank, clamped to ``[min, max]``: inside the bucket range it is within
``2 ** (1 / 16) - 1`` (4.4 %) of a duration of that rank.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from math import inf

import numpy as np

__all__ = [
    "BUCKETS_PER_DOUBLING",
    "DIGEST_BUCKETS",
    "DIGEST_LOWEST_S",
    "PhaseStats",
    "SpanDigest",
    "percentile",
    "summarise",
]

#: log-spaced buckets per doubling of a :class:`SpanDigest`
BUCKETS_PER_DOUBLING = 8

#: the lower edge of a digest's first bucket (seconds; about 1 ns)
DIGEST_LOWEST_S = 2.0**-30

#: the buckets of one digest: 40 doublings up from :data:`DIGEST_LOWEST_S`
DIGEST_BUCKETS = 40 * BUCKETS_PER_DOUBLING

#: the upper edges of every bucket but the last: bucket ``i`` holds
#: durations in ``[_EDGES[i - 1], _EDGES[i])``, the end buckets the rest
_EDGES = tuple(
    DIGEST_LOWEST_S * 2.0 ** ((i + 1) / BUCKETS_PER_DOUBLING)
    for i in range(DIGEST_BUCKETS - 1)
)


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

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = inf
        self.max = -inf
        self.buckets = array("q", [0]) * DIGEST_BUCKETS

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration < self.min:
            self.min = duration
        if duration > self.max:
            self.max = duration
        self.buckets[bisect_right(_EDGES, duration)] += 1

    def copy(self) -> SpanDigest:
        out = SpanDigest()
        out.count, out.total, out.min, out.max = self.count, self.total, self.min, self.max
        out.buckets = self.buckets[:]
        return out

    @classmethod
    def merged(cls, digests: Iterable[SpanDigest]) -> SpanDigest:
        """One digest of every duration the ``digests`` hold: counts,
        totals and bucket counts add, min and max stay exact."""
        parts = list(digests)
        out = cls()
        out.count = sum(d.count for d in parts)
        out.total = sum(d.total for d in parts)
        out.min = min((d.min for d in parts), default=inf)
        out.max = max((d.max for d in parts), default=-inf)
        rows = np.frombuffer(b"".join(d.buckets for d in parts), dtype=np.int64)
        out.buckets = array("q", rows.reshape(-1, DIGEST_BUCKETS).sum(axis=0).tobytes())
        return out

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) of the durations added.

        With ``n`` durations and ``r = q/100·(n−1)``, this is the
        geometric midpoint of the bucket holding the ``round(r)``-th
        smallest duration, clamped to ``[min, max]``.
        """
        if not self.count:
            raise ValueError("quantile of an empty digest")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        rank = round(q / 100.0 * (self.count - 1))
        cumulative = np.frombuffer(self.buckets, dtype=np.int64).cumsum()
        index = int(cumulative.searchsorted(rank, side="right"))
        mid = DIGEST_LOWEST_S * 2.0 ** ((index + 0.5) / BUCKETS_PER_DOUBLING)
        return min(max(mid, self.min), self.max)

    def stats(self) -> PhaseStats:
        """The digest as :class:`PhaseStats`, median and p95 by :meth:`quantile`."""
        median = self.quantile(50.0)  # raises on an empty digest
        return PhaseStats(
            count=self.count,
            total=self.total,
            mean=self.total / self.count,
            median=median,
            p95=self.quantile(95.0),
            min=self.min,
            max=self.max,
        )
