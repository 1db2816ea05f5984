"""The logical ``Px x Py`` process grid and its rank conventions.

Rank convention (pinned down by the paper's Table I, where 5 nests on 1024
cores get start ranks 0, 256, 512, 13 and 429 on a 32x32 grid):

* ranks are **row-major with x fastest**: ``rank = y * Px + x``;
* a nest allocation is a :class:`~repro.grid.rect.Rect` of grid coordinates,
  reported as *(start rank, w x h)* with the start rank at the rectangle's
  north-west (minimum x, minimum y) corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.grid.rect import Rect

__all__ = ["ProcessorGrid"]


@dataclass(frozen=True)
class ProcessorGrid:
    """A ``px x py`` logical process grid."""

    px: int
    py: int

    def __post_init__(self) -> None:
        if self.px < 1 or self.py < 1:
            raise ValueError(f"process grid must be at least 1x1, got {self.px}x{self.py}")

    @classmethod
    def square_like(cls, nprocs: int) -> "ProcessorGrid":
        """The most square factorisation with ``px <= py`` (WRF's default)."""
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        px = int(math.isqrt(nprocs))
        while nprocs % px != 0:
            px -= 1
        return cls(px, nprocs // px)

    @property
    def nprocs(self) -> int:
        return self.px * self.py

    @property
    def full_rect(self) -> Rect:
        """The whole grid as a rectangle."""
        return Rect(0, 0, self.px, self.py)

    # -- rank arithmetic ---------------------------------------------------

    def rank(self, x: int, y: int) -> int:
        """Rank of grid coordinate ``(x, y)``."""
        if not (0 <= x < self.px and 0 <= y < self.py):
            raise ValueError(f"({x},{y}) outside grid {self.px}x{self.py}")
        return y * self.px + x

    def coords(self, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised rank → ``(x, y)``."""
        ranks = np.asarray(ranks)
        return ranks % self.px, ranks // self.px

    def start_rank(self, rect: Rect) -> int:
        """The paper's 'start rank': processor at the rectangle's NW corner."""
        self._check_rect(rect)
        return self.rank(rect.x0, rect.y0)

    def ranks_in(self, rect: Rect) -> np.ndarray:
        """All ranks inside ``rect``, as a 1D array ordered row-major."""
        self._check_rect(rect)
        xs = np.arange(rect.x0, rect.x1)
        ys = np.arange(rect.y0, rect.y1)
        return (ys[:, None] * self.px + xs[None, :]).ravel()

    def _check_rect(self, rect: Rect) -> None:
        if not self.full_rect.contains(rect):
            raise ValueError(f"rect {rect} not inside grid {self.px}x{self.py}")

    def __str__(self) -> str:
        return f"{self.px}x{self.py}"
