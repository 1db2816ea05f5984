"""Halo-exchange communication of a running nest.

Every integration step, each processor of a nest exchanges its block's
boundary rows/columns with its four grid neighbours — the communication
whose cost makes *skewed* processor rectangles slow (paper Fig. 7): for a
fixed processor count, the per-processor perimeter ``nx/px + ny/py`` is
minimised when the rectangle is square-like and matched to the nest's
aspect.

:func:`halo_messages` generates the exact message set of one exchange
(width-``halo`` strips, both directions per face), so the network
simulator can *measure* what the execution oracle's analytic
``c_halo · L · (nx/px + ny/py)`` term models — the calibration
cross-check in ``benchmarks/bench_halo_model.py``.
"""

from __future__ import annotations

import numpy as np

from repro.grid.block import BlockDecomposition
from repro.grid.rect import Rect
from repro.mpisim.alltoallv import MessageSet

__all__ = ["halo_messages"]


def halo_messages(
    decomp: BlockDecomposition,
    grid_px: int,
    bytes_per_point: float,
    halo: int = 1,
) -> MessageSet:
    """One halo exchange of a nest decomposed over its processor rectangle.

    For every interior face between rect-relative processors ``(i, j)`` and
    ``(i+1, j)`` (or ``(i, j+1)``), both directions send ``halo`` columns
    (rows) of the face length.  ``bytes_per_point`` is the per-point
    payload of the exchanged state (all vertical levels of the halo'd
    variables).
    """
    if halo < 1:
        raise ValueError(f"halo width must be >= 1, got {halo}")
    if bytes_per_point <= 0:
        raise ValueError(f"bytes_per_point must be > 0, got {bytes_per_point}")
    rect: Rect = decomp.proc_rect
    xb, yb = decomp.x_bounds, decomp.y_bounds
    col_h = np.diff(yb)  # block heights per processor row
    row_w = np.diff(xb)  # block widths per processor column

    src: list[int] = []
    dst: list[int] = []
    nbytes: list[float] = []

    def rank(i: int, j: int) -> int:
        return (rect.y0 + j) * grid_px + (rect.x0 + i)

    # vertical faces: (i, j) <-> (i+1, j), exchanging `halo` columns of the
    # block height (clipped to the block width actually available)
    for j in range(rect.h):
        face = float(col_h[j])
        if face <= 0:
            continue
        for i in range(rect.w - 1):
            width = min(halo, int(row_w[i]), int(row_w[i + 1]))
            if width <= 0:
                continue
            vol = face * width * bytes_per_point
            src.extend((rank(i, j), rank(i + 1, j)))
            dst.extend((rank(i + 1, j), rank(i, j)))
            nbytes.extend((vol, vol))
    # horizontal faces: (i, j) <-> (i, j+1)
    for i in range(rect.w):
        face = float(row_w[i])
        if face <= 0:
            continue
        for j in range(rect.h - 1):
            width = min(halo, int(col_h[j]), int(col_h[j + 1]))
            if width <= 0:
                continue
            vol = face * width * bytes_per_point
            src.extend((rank(i, j), rank(i, j + 1)))
            dst.extend((rank(i, j + 1), rank(i, j)))
            nbytes.extend((vol, vol))

    if not src:
        return MessageSet(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    return MessageSet(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(nbytes, dtype=np.float64),
    )

