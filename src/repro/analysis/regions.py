"""Cluster → region-of-interest rectangles (Algorithm 1, lines 16–19).

Each cluster of ``qcloudinfo`` rows is replaced by the bounding rectangle
of its members' grid-point extents; these rectangles are the nest domains
that the simulation spawns at the next adaptation point.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.records import QcloudInfo
from repro.grid.rect import Rect

__all__ = ["cluster_bounding_rect", "clusters_to_rectangles"]


def cluster_bounding_rect(info: QcloudInfo, cluster: np.ndarray) -> Rect:
    """Bounding rectangle (parent grid points) of a cluster's subdomains.

    The members' tiles span block columns ``min(block_x) .. max(block_x)``
    and block rows likewise, so the rectangle runs from the first column's
    lower tile bound to the last column's upper one (likewise for rows).
    """
    if not len(cluster):
        raise ValueError("cannot bound an empty cluster")
    block_x, block_y = info.block_x[cluster], info.block_y[cluster]
    x_lo, x_hi = int(block_x.min()), int(block_x.max()) + 1
    y_lo, y_hi = int(block_y.min()), int(block_y.max()) + 1
    xb, yb = info.x_bounds, info.y_bounds
    return Rect(xb[x_lo], yb[y_lo], xb[x_hi] - xb[x_lo], yb[y_hi] - yb[y_lo])


def clusters_to_rectangles(info: QcloudInfo, clusters: list[np.ndarray]) -> list[Rect]:
    """Region-of-interest rectangles for all non-empty clusters.

    Every cluster yields a rectangle, as in the paper: its thresholds
    already filtered weak subdomains.
    """
    return [cluster_bounding_rect(info, c) for c in clusters if len(c)]
