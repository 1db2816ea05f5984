"""Balanced block decomposition of a nest domain over its processor rectangle.

"A nest is equally subdivided among its allocated processors" (paper §IV,
Fig. 3).  For a nest of ``nx x ny`` grid points on a ``w x h`` processor
rectangle, each processor owns one block; block widths along an axis differ
by at most one point (WRF-style balanced decomposition, remainder given to
the leading blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.rect import Rect

__all__ = ["split_evenly", "BlockDecomposition"]


def split_evenly(n: int, parts: int) -> np.ndarray:
    """Boundaries of a balanced split of ``n`` items into ``parts`` chunks.

    Returns an integer array ``b`` of length ``parts + 1`` with ``b[0] == 0``,
    ``b[-1] == n`` and chunk ``i`` owning ``[b[i], b[i+1])``.  Chunk sizes
    differ by at most one; the first ``n % parts`` chunks are the larger ones.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    base, extra = divmod(n, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate(([0], np.cumsum(sizes)))


@dataclass(frozen=True)
class BlockDecomposition:
    """Ownership of an ``nx x ny`` nest by the processors of ``proc_rect``.

    Processor at rectangle-relative position ``(i, j)`` owns nest points
    ``[xb[i], xb[i+1]) x [yb[j], yb[j+1])``.
    """

    nx: int
    ny: int
    proc_rect: Rect

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"nest must be at least 1x1, got {self.nx}x{self.ny}")
        if self.proc_rect.is_empty:
            raise ValueError("processor rectangle must be non-empty")

    @property
    def x_bounds(self) -> np.ndarray:
        """Nest-x boundaries per processor column (length ``w + 1``)."""
        return split_evenly(self.nx, self.proc_rect.w)

    @property
    def y_bounds(self) -> np.ndarray:
        """Nest-y boundaries per processor row (length ``h + 1``)."""
        return split_evenly(self.ny, self.proc_rect.h)

    def block_of(self, i: int, j: int) -> Rect:
        """Nest-point block owned by rect-relative processor ``(i, j)``."""
        if not (0 <= i < self.proc_rect.w and 0 <= j < self.proc_rect.h):
            raise ValueError(
                f"({i},{j}) outside processor rect {self.proc_rect.w}x{self.proc_rect.h}"
            )
        xb, yb = self.x_bounds, self.y_bounds
        return Rect(
            int(xb[i]), int(yb[j]), int(xb[i + 1] - xb[i]), int(yb[j + 1] - yb[j])
        )
