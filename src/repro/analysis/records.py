"""Data records flowing through the analysis pipeline.

:class:`SplitBatch` is one analysis step's split files (the paper's
``F_1 .. F_P``) held as the step's full-domain QCLOUD/OLR pair plus the
fixed tile bounds of the simulation's ``Px x Py`` decomposition: simulation
rank ``by * Px + bx`` wrote tile ``(bx, by)``.  A tile whose file never
arrived is marked missing; a damaged tile carries a private copy of its
arrays that stands in for its view of the fields.

:class:`SplitFile` models one rank's file on its own: the rank's QCLOUD/OLR
subarrays plus where the subdomain sits, both as a block index in the
simulation's process decomposition and as a grid-point extent in
parent-domain coordinates.  Only the disk writer, the scalar oracles and
the cost profile build them, through :meth:`SplitBatch.file`.

:class:`QcloudInfo` is the paper's ``qcloudinfo``, the root's gathered
``(qcloud, olrfraction)`` tuples, held as parallel arrays with one row per
subdomain: where the subdomain sits in the block grid (the hop-distance
proximity of Algorithm 2) and, through the grid's tile bounds, which grid
points it covers (the nest rectangles).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.grid.rect import Rect
from repro.util.validation import check_in_range

__all__ = ["QcloudInfo", "SplitBatch", "SplitFile"]


def _check_bounds(name: str, bounds: tuple[int, ...]) -> None:
    if len(bounds) < 2 or bounds[0] != 0:
        raise ValueError(f"{name} must start at 0 and hold one tile: {bounds}")
    if any(hi <= lo for lo, hi in zip(bounds, bounds[1:])):
        raise ValueError(f"{name} must strictly increase: {bounds}")


@dataclass(frozen=True, eq=False)
class SplitBatch:
    """One analysis step's split files over the step's shared fields.

    ``qcloud``/``olr`` are the model's read-only ``(ny, nx)`` fields, never
    copied.  Tile ``rank = by * px + bx`` covers parent grid points
    ``[x_bounds[bx], x_bounds[bx + 1]) x [y_bounds[by], y_bounds[by + 1])``.
    ``missing[rank]`` marks a file that never arrived (a crashed or
    truncated writer); ``damaged[rank]`` is a private ``(qcloud, olr)``
    copy of a tile that stands in for its view (a corrupt payload).
    """

    qcloud: np.ndarray
    olr: np.ndarray
    x_bounds: tuple[int, ...]
    y_bounds: tuple[int, ...]
    missing: np.ndarray  # (px * py,) bool, in rank order
    damaged: Mapping[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        _check_bounds("x_bounds", self.x_bounds)
        _check_bounds("y_bounds", self.y_bounds)
        shape = (self.y_bounds[-1], self.x_bounds[-1])
        if self.qcloud.shape != shape or self.olr.shape != shape:
            raise ValueError(
                f"field shapes {self.qcloud.shape}/{self.olr.shape} do not "
                f"match the tile bounds' domain {shape}"
            )
        if self.missing.dtype != np.bool_ or self.missing.shape != (len(self),):
            raise ValueError(
                f"missing must hold one bool per tile ({len(self)}), got "
                f"{self.missing.dtype} {self.missing.shape}"
            )
        for rank, (q, o) in self.damaged.items():
            extent = self.extent(rank)
            expected = (extent.h, extent.w)
            if q.shape != expected or o.shape != expected:
                raise ValueError(
                    f"damaged tile {rank} shapes {q.shape}/{o.shape} do not "
                    f"match its tile {expected}"
                )

    @property
    def px(self) -> int:
        """Tile columns (the simulation decomposition's ``Px``)."""
        return len(self.x_bounds) - 1

    @property
    def py(self) -> int:
        """Tile rows (the simulation decomposition's ``Py``)."""
        return len(self.y_bounds) - 1

    def __len__(self) -> int:
        """``P``, the number of tiles (files), missing ones included."""
        return self.px * self.py

    @property
    def areas(self) -> np.ndarray:
        """Grid points per tile, in rank order."""
        return np.outer(np.diff(self.y_bounds), np.diff(self.x_bounds)).ravel()

    def extent(self, rank: int) -> Rect:
        """Tile ``rank``'s grid-point extent in parent-domain coordinates."""
        check_in_range("rank", rank, 0, len(self) - 1)
        by, bx = divmod(rank, self.px)
        xb, yb = self.x_bounds, self.y_bounds
        return Rect(xb[bx], yb[by], xb[bx + 1] - xb[bx], yb[by + 1] - yb[by])

    def tile_fields(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """Tile ``rank``'s ``(qcloud, olr)``: its damaged copy, else views.

        Validation: a damaged rank was checked when the batch was built, and
        :meth:`extent` checks any other.
        """
        if rank in self.damaged:
            return self.damaged[rank]
        e = self.extent(rank)
        window = (slice(e.y0, e.y1), slice(e.x0, e.x1))
        return self.qcloud[window], self.olr[window]

    def file(self, rank: int) -> SplitFile | None:
        """Tile ``rank`` as its own :class:`SplitFile` (``None`` if missing)."""
        check_in_range("rank", rank, 0, len(self) - 1)
        if self.missing[rank]:
            return None
        by, bx = divmod(rank, self.px)
        qcloud, olr = self.tile_fields(rank)
        return SplitFile(rank, bx, by, self.extent(rank), qcloud, olr)


@dataclass(frozen=True)
class SplitFile:
    """One simulation rank's output for one analysis step."""

    file_index: int  # writing rank (0 .. P-1)
    block_x: int  # subdomain position in the Px x Py sim decomposition
    block_y: int
    extent: Rect  # grid-point extent in parent-domain coordinates
    qcloud: np.ndarray  # (extent.h, extent.w) cloud water mixing ratio
    olr: np.ndarray  # (extent.h, extent.w) outgoing long-wave radiation

    def __post_init__(self) -> None:
        expected = (self.extent.h, self.extent.w)
        if self.qcloud.shape != expected or self.olr.shape != expected:
            raise ValueError(
                f"field shapes {self.qcloud.shape}/{self.olr.shape} do not "
                f"match extent {expected}"
            )

    def summarise(self, olr_threshold: float) -> tuple[float, float]:
        """Algorithm 1, lines 4–9: aggregate QCLOUD where OLR <= threshold.

        Returns ``(qcloud, olr_fraction)``: the QCLOUD summed over the
        points with ``OLR <= olr_threshold``, and their share of the area.

        Validation: any threshold is meaningful — one below the field's
        minimum simply selects nothing (zero cloud fraction).
        """
        mask = self.olr <= olr_threshold
        qcloud = float(self.qcloud[mask].sum())
        area = self.qcloud.size
        return qcloud, float(mask.sum()) / area if area else 0.0


#: the row columns of a :class:`QcloudInfo` and their dtypes
_QCLOUDINFO_COLUMNS = (
    ("file_index", np.int64),
    ("block_x", np.int64),
    ("block_y", np.int64),
    ("qcloud", np.float64),
    ("olr_fraction", np.float64),
)


@dataclass(frozen=True, eq=False)
class QcloudInfo:
    """The root's ``qcloudinfo``: one row per gathered subdomain.

    Five parallel read-only arrays hold a row each: ``file_index`` (the
    writing rank), ``block_x``/``block_y`` (the subdomain's position in the
    ``Px x Py`` block grid; the Chebyshev distance between two positions is
    Algorithm 2's hop count), ``qcloud`` (aggregated QCLOUD where
    ``OLR <= 200``) and ``olr_fraction`` (the low-OLR share of its area).
    ``x_bounds``/``y_bounds`` are the block grid's tile bounds: row ``i``
    covers parent grid points ``[x_bounds[bx], x_bounds[bx + 1]) x
    [y_bounds[by], y_bounds[by + 1])`` with ``bx, by = block_x[i],
    block_y[i]``.  Each column is copied on construction, so the record
    shares no array with its caller.
    """

    file_index: np.ndarray
    block_x: np.ndarray
    block_y: np.ndarray
    qcloud: np.ndarray
    olr_fraction: np.ndarray
    x_bounds: tuple[int, ...]
    y_bounds: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_bounds("x_bounds", self.x_bounds)
        _check_bounds("y_bounds", self.y_bounds)
        n = len(self.qcloud)
        for name, dtype in _QCLOUDINFO_COLUMNS:
            column = np.array(getattr(self, name), dtype=dtype)
            if column.shape != (n,):
                raise ValueError(
                    f"{name} must hold one value per row ({n}), got shape "
                    f"{column.shape}"
                )
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        for name, blocks, size in (
            ("block_x", self.block_x, self.px),
            ("block_y", self.block_y, self.py),
        ):
            if n and not (0 <= blocks.min() and blocks.max() < size):
                raise ValueError(f"{name} must lie in [0, {size}): {blocks}")

    @classmethod
    def sort_gathered(
        cls,
        file_index: np.ndarray,
        block_x: np.ndarray,
        block_y: np.ndarray,
        qcloud: np.ndarray,
        olr_fraction: np.ndarray,
        x_bounds: tuple[int, ...],
        y_bounds: tuple[int, ...],
    ) -> QcloudInfo:
        """The gathered rows sorted by decreasing QCLOUD (Algorithm 1, line 13).

        The sort is stable, so rows of equal QCLOUD keep their gather order.

        Validation: the record's constructor checks the columns and bounds.
        """
        order = np.argsort(-np.asarray(qcloud, dtype=np.float64), kind="stable")
        columns = (file_index, block_x, block_y, qcloud, olr_fraction)
        return cls(*(np.asarray(c)[order] for c in columns), x_bounds, y_bounds)

    @property
    def px(self) -> int:
        """Block-grid columns."""
        return len(self.x_bounds) - 1

    @property
    def py(self) -> int:
        """Block-grid rows."""
        return len(self.y_bounds) - 1

    def __len__(self) -> int:
        """Rows: the subdomains gathered at the root."""
        return len(self.qcloud)
