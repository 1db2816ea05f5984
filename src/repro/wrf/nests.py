"""Nest domains and their tracking across adaptation points.

A nest is a high-resolution (3x by default) child simulation covering one
region of interest.  The paper spawns nests on-the-fly when the parallel
data analysis reports a new ROI, deletes nests whose ROI vanished, and
*retains* a nest "output by PDA in the previous invocation as well as in
the current invocation".  :class:`NestTracker` implements that identity
matching: a new ROI whose intersection-over-union with a live nest's ROI
is at least :data:`IOU_THRESHOLD` is the same nest (greedy best-IoU
matching), everything else is a birth or death.

Initial nest data is interpolated from the parent fields
(:meth:`Nest.interpolate_from_parent`), as WRF does when a nest spawns.

:func:`detect_nests` is the detect half of an adaptation point: split
files → parallel data analysis → the :data:`MAX_NESTS` largest ROIs,
clamped → tracking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.pda import parallel_data_analysis
from repro.grid.rect import Rect
from repro.wrf.model import WrfLikeModel

__all__ = ["Nest", "NestTracker", "Detection", "detect_nests"]

#: the least intersection-over-union at which a new ROI continues a live nest
IOU_THRESHOLD = 0.15
#: the most nests one adaptation point keeps (the Mumbai run had at most 7)
MAX_NESTS = 7


@dataclass(frozen=True)
class Nest:
    """One nested domain: an ROI simulated at ``refinement``-times resolution."""

    nest_id: int
    roi: Rect  # parent grid points
    refinement: int = 3

    def __post_init__(self) -> None:
        if self.roi.is_empty:
            raise ValueError(f"nest {self.nest_id} has an empty ROI")
        if self.refinement < 1:
            raise ValueError(f"refinement must be >= 1, got {self.refinement}")

    @property
    def nx(self) -> int:
        """Nest grid width (fine points)."""
        return self.roi.w * self.refinement

    @property
    def ny(self) -> int:
        """Nest grid height (fine points)."""
        return self.roi.h * self.refinement

    def _check_inside(self, parent_field: np.ndarray) -> tuple[int, int]:
        """The parent's ``(height, width)``; ``ValueError`` when the ROI
        reaches outside it on any side."""
        ph, pw = parent_field.shape
        roi = self.roi
        if roi.x0 < 0 or roi.y0 < 0 or roi.x1 > pw or roi.y1 > ph:
            raise ValueError(f"ROI {roi} outside parent field {pw}x{ph}")
        return ph, pw

    def interpolate_from_parent(self, parent_field: np.ndarray) -> np.ndarray:
        """Bilinear interpolation of the parent field onto the nest grid.

        ``parent_field`` is the full parent domain ``(ny, nx)``; the result
        has shape ``(self.ny, self.nx)``.  Fine points sit at the centres of
        the ``refinement x refinement`` subdivision of each parent cell.
        An ROI outside the parent raises ``ValueError``.

        The row weights are applied once per fine row over the parent
        columns the ROI reads, then the columns are gathered and weighted:
        every fine point sees the operands of
        :meth:`_interpolate_from_parent_reference` in its order, so the two
        agree bit for bit.
        """
        ph, pw = self._check_inside(parent_field)
        x0, x1, tx = _axis_stencil(self.roi.x0, self.nx, self.refinement, pw)
        y0, y1, ty = _axis_stencil(self.roi.y0, self.ny, self.refinement, ph)
        c0, c1 = int(x0[0]), int(x1[-1]) + 1
        wy = ty[:, None]
        top = parent_field[y0, c0:c1] * (1 - wy)
        bottom = parent_field[y1, c0:c1] * wy
        left, right = x0 - c0, x1 - c0
        wl = 1 - tx
        out = top.take(left, axis=1)
        out *= wl
        term = top.take(right, axis=1)
        term *= tx
        out += term
        # the stencil's indices are in range, and "clip" lets take write
        # straight into ``term`` where "raise" would stage a copy
        bottom.take(left, axis=1, out=term, mode="clip")
        term *= wl
        out += term
        bottom.take(right, axis=1, out=term, mode="clip")
        term *= tx
        out += term
        return out

    def _interpolate_from_parent_reference(self, parent_field: np.ndarray) -> np.ndarray:
        """Four-corner oracle of :meth:`interpolate_from_parent` (tests
        only): each corner gathered and weighted at fine resolution."""
        ph, pw = self._check_inside(parent_field)
        r = self.refinement
        # Fine-point coordinates in parent index space (cell-centre offsets).
        fx = self.roi.x0 + (np.arange(self.nx) + 0.5) / r - 0.5
        fy = self.roi.y0 + (np.arange(self.ny) + 0.5) / r - 0.5
        fx = np.clip(fx, 0, pw - 1)
        fy = np.clip(fy, 0, ph - 1)
        x0 = np.clip(np.floor(fx).astype(np.int64), 0, pw - 2) if pw > 1 else np.zeros(self.nx, dtype=np.int64)
        y0 = np.clip(np.floor(fy).astype(np.int64), 0, ph - 2) if ph > 1 else np.zeros(self.ny, dtype=np.int64)
        tx = fx - x0 if pw > 1 else np.zeros(self.nx)
        ty = fy - y0 if ph > 1 else np.zeros(self.ny)
        x1 = np.minimum(x0 + 1, pw - 1)
        y1 = np.minimum(y0 + 1, ph - 1)
        f00 = parent_field[np.ix_(y0, x0)]
        f01 = parent_field[np.ix_(y0, x1)]
        f10 = parent_field[np.ix_(y1, x0)]
        f11 = parent_field[np.ix_(y1, x1)]
        wx = tx[None, :]
        wy = ty[:, None]
        return (
            f00 * (1 - wy) * (1 - wx)
            + f01 * (1 - wy) * wx
            + f10 * wy * (1 - wx)
            + f11 * wy * wx
        )


def _axis_stencil(
    start: int, n: int, r: int, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One axis of the bilinear stencil: for each of the ``n`` fine points
    from parent point ``start`` at refinement ``r``, its lower and upper
    parent neighbours on an axis of ``size`` points and the upper one's
    weight."""
    if size == 1:
        zeros = np.zeros(n, dtype=np.int64)
        return zeros, zeros, np.zeros(n)
    f = np.clip(start + (np.arange(n) + 0.5) / r - 0.5, 0, size - 1)
    lower = np.clip(np.floor(f).astype(np.int64), 0, size - 2)
    return lower, lower + 1, f - lower


class NestTracker:
    """Maintains nest identity across adaptation points.

    ``update(rois)`` matches the new ROIs against live nests (greedy, best
    intersection-over-union first, accepted at :data:`IOU_THRESHOLD` or
    above, so a matched nest may grow or shrink); matched nests are
    *retained* (their ROI updates to the new rectangle), unmatched live
    nests are *deleted*, unmatched ROIs become *new* nests with fresh ids.
    """

    def __init__(self, refinement: int = 3) -> None:
        self.refinement = refinement
        self.live: dict[int, Nest] = {}
        self._next_id = 1

    def update(self, rois: list[Rect]) -> tuple[list[Nest], list[int], list[Nest]]:
        """Process one adaptation point.

        Returns ``(retained, deleted_ids, new)`` where ``retained`` holds the
        surviving nests with updated ROIs and ``new`` the freshly spawned
        nests.  ``self.live`` reflects the post-update population.
        """
        candidates = []
        for nest in self.live.values():
            for ri, roi in enumerate(rois):
                iou = nest.roi.iou(roi)
                if iou >= IOU_THRESHOLD:
                    candidates.append((iou, nest.nest_id, ri))
        candidates.sort(key=lambda t: -t[0])
        matched_nests: set[int] = set()
        matched_rois: set[int] = set()
        retained: list[Nest] = []
        for iou, nest_id, ri in candidates:
            if nest_id in matched_nests or ri in matched_rois:
                continue
            matched_nests.add(nest_id)
            matched_rois.add(ri)
            retained.append(
                Nest(nest_id=nest_id, roi=rois[ri], refinement=self.refinement)
            )
        deleted_ids = sorted(set(self.live) - matched_nests)
        new: list[Nest] = []
        for ri, roi in enumerate(rois):
            if ri in matched_rois:
                continue
            new.append(Nest(nest_id=self._next_id, roi=roi, refinement=self.refinement))
            self._next_id += 1
        self.live = {n.nest_id: n for n in retained + new}
        return retained, deleted_ids, new


def _clamp_roi(roi: Rect, min_side: int, max_side: int, nx: int, ny: int) -> Rect:
    """Clamp an ROI to WRF-practical nest sizes.

    Nests below ``min_side`` parent points are expanded around their centre
    (WRF enforces minimum nest extents); oversized ones are cropped around
    their centre.  The result stays inside the ``nx x ny`` parent domain.
    """
    min_w = min(min_side, nx)
    min_h = min(min_side, ny)

    def clamp_axis(c0: int, length: int, lo: int, hi: int, domain: int) -> tuple[int, int]:
        new_len = max(lo, min(length, hi))
        start = c0 + (length - new_len) // 2
        start = max(0, min(start, domain - new_len))
        return start, new_len

    x0, w = clamp_axis(roi.x0, roi.w, min_w, max_side, nx)
    y0, h = clamp_axis(roi.y0, roi.h, min_h, max_side, ny)
    return Rect(x0, y0, w, h)


@dataclass(frozen=True)
class Detection:
    """One point's ROIs, the tracker's verdict and the live nests' sizes."""

    rois: list[Rect]
    retained: list[Nest]
    deleted: list[int]
    spawned: list[Nest]
    nests: dict[int, tuple[int, int]]


def detect_nests(
    model: WrfLikeModel,
    tracker: NestTracker,
    n_analysis: int = 64,
    roi_side_range: tuple[int, int] = (58, 120),
) -> Detection:
    """PDA over the model's split files; the :data:`MAX_NESTS` largest ROIs,
    clamped to ``roi_side_range`` parent points a side, update ``tracker``."""
    config = model.config
    result = parallel_data_analysis(model.write_split_files(), config.sim_grid, n_analysis)
    lo, hi = roi_side_range
    rois = [
        _clamp_roi(r, lo, hi, config.nx, config.ny)
        for r in sorted(result.rectangles, key=lambda r: -r.area)[:MAX_NESTS]
    ]
    retained, deleted, spawned = tracker.update(rois)
    nests = {n.nest_id: (n.nx, n.ny) for n in tracker.live.values()}
    return Detection(rois, retained, deleted, spawned, nests)
