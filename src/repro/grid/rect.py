"""Axis-aligned integer rectangles on the process grid (and on nest grids).

A :class:`Rect` is the half-open box ``[x0, x0+w) x [y0, y0+h)``.  The paper
reports a nest's allocation as *(start rank, w x h)* where the start rank is
the processor at the rectangle's north-west corner (Table I); the
``w``/``h`` here follow the paper's ``cols x rows`` print order.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Rect"]


@dataclass(frozen=True, order=True)
class Rect:
    """Half-open integer rectangle ``[x0, x0+w) x [y0, y0+h)``."""

    x0: int
    y0: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"rectangle sides must be non-negative: {self}")

    # -- basic geometry -------------------------------------------------

    @property
    def x1(self) -> int:
        """Exclusive right edge."""
        return self.x0 + self.w

    @property
    def y1(self) -> int:
        """Exclusive bottom edge."""
        return self.y0 + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    @property
    def is_empty(self) -> bool:
        return self.area == 0

    @property
    def aspect_ratio(self) -> float:
        """max(w, h) / min(w, h); 1.0 is a square, large values are skewed.

        The paper's layout prefers square-like rectangles because skewed
        nest partitions increase WRF halo-exchange time (its Fig. 7).
        Empty rectangles report ``inf``.
        """
        if self.is_empty:
            return float("inf")
        lo, hi = sorted((self.w, self.h))
        return hi / lo

    def __str__(self) -> str:
        return f"[{self.x0}:{self.x1})x[{self.y0}:{self.y1})"

    # -- set-like operations ---------------------------------------------

    def contains_point(self, x: int, y: int) -> bool:
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        if other.is_empty:
            return True
        return (
            self.x0 <= other.x0
            and other.x1 <= self.x1
            and self.y0 <= other.y0
            and other.y1 <= self.y1
        )

    def intersect(self, other: "Rect") -> "Rect":
        """Intersection rectangle; empty (zero-area) if disjoint."""
        x0 = max(self.x0, other.x0)
        y0 = max(self.y0, other.y0)
        x1 = min(self.x1, other.x1)
        y1 = min(self.y1, other.y1)
        if x1 <= x0 or y1 <= y0:
            return Rect(x0, y0, 0, 0)
        return Rect(x0, y0, x1 - x0, y1 - y0)

    def overlaps(self, other: "Rect") -> bool:
        """True when the intersection has positive area (an empty
        rectangle overlaps nothing)."""
        return (
            max(self.x0, other.x0) < min(self.x1, other.x1)
            and max(self.y0, other.y0) < min(self.y1, other.y1)
        )

    def iou(self, other: "Rect") -> float:
        """Intersection-over-union; the nest tracking match score."""
        inter = self.intersect(other).area
        if inter == 0:
            return 0.0
        union = self.area + other.area - inter
        return inter / union

    # -- splitting --------------------------------------------------------

    def split_vertical(self, left_w: int) -> tuple["Rect", "Rect"]:
        """Split by a vertical cut: left gets ``left_w`` columns."""
        if not 0 <= left_w <= self.w:
            raise ValueError(f"cannot take {left_w} columns from {self}")
        return (
            Rect(self.x0, self.y0, left_w, self.h),
            Rect(self.x0 + left_w, self.y0, self.w - left_w, self.h),
        )

    def split_horizontal(self, top_h: int) -> tuple["Rect", "Rect"]:
        """Split by a horizontal cut: top gets ``top_h`` rows."""
        if not 0 <= top_h <= self.h:
            raise ValueError(f"cannot take {top_h} rows from {self}")
        return (
            Rect(self.x0, self.y0, self.w, top_h),
            Rect(self.x0, self.y0 + top_h, self.w, self.h - top_h),
        )
