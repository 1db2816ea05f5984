"""Terminal renderers (pure functions returning strings)."""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation

__all__ = [
    "render_allocation",
    "render_allocation_diff",
    "render_field",
    "sparkline",
]

#: Glyph alphabet for nests/clusters; cycles when exhausted.
_GLYPHS = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghij"

#: Shading ramp for scalar fields, light to dark.
_SHADES = " .:-=+*#%@"


def _glyph(index: int) -> str:
    return _GLYPHS[index % len(_GLYPHS)]


def _glyph_map(nest_ids: list[int]) -> dict[int, str]:
    return {nid: _glyph(i) for i, nid in enumerate(sorted(nest_ids))}


def render_allocation(
    allocation: Allocation,
    glyphs: dict[int, str] | None = None,
    max_width: int = 64,
) -> str:
    """The processor grid with one glyph per nest (``.`` = unused).

    Grids wider than ``max_width`` are downsampled by integer strides so a
    1024-core allocation still fits a terminal.
    """
    grid = allocation.grid
    glyphs = glyphs or _glyph_map(allocation.nest_ids)
    canvas = np.full((grid.py, grid.px), ".", dtype="<U1")
    for nid, rect in allocation.rects.items():
        canvas[rect.y0 : rect.y1, rect.x0 : rect.x1] = glyphs.get(nid, "?")
    sx = max(1, grid.px // max_width)
    sy = max(1, grid.py // max_width)
    rows = ["".join(canvas[y, ::sx]) for y in range(0, grid.py, sy)]
    legend = "  ".join(
        f"{glyphs[nid]}=nest {nid}" for nid in allocation.nest_ids
    )
    header = f"process grid {grid} (downsampled {sx}x{sy})" if (sx > 1 or sy > 1) else f"process grid {grid}"
    return "\n".join([header, *rows, legend or "(empty allocation)"])


def render_allocation_diff(old: Allocation, new: Allocation, max_width: int = 64) -> str:
    """Old and new allocations side by side, plus per-nest rect overlap."""
    if old.grid != new.grid:
        raise ValueError(f"allocations on different grids: {old.grid} vs {new.grid}")
    glyphs = _glyph_map(sorted(set(old.nest_ids) | set(new.nest_ids)))
    left = render_allocation(old, glyphs, max_width).splitlines()
    right = render_allocation(new, glyphs, max_width).splitlines()
    width = max(len(l) for l in left)
    lines = [f"{'OLD':<{width}}   NEW"]
    for l, r in zip(left, right):
        lines.append(f"{l:<{width}}   {r}")
    retained = sorted(set(old.rects) & set(new.rects))
    for nid in retained:
        o, n = old.rects[nid], new.rects[nid]
        ov = o.intersect(n).area
        lines.append(
            f"nest {nid}: {o} -> {n}, rect overlap {ov}/{o.area}"
            f" ({100 * ov / o.area:.0f}%)"
        )
    for nid in sorted(set(old.rects) - set(new.rects)):
        lines.append(f"nest {nid}: deleted")
    for nid in sorted(set(new.rects) - set(old.rects)):
        lines.append(f"nest {nid}: created at {new.rects[nid]}")
    return "\n".join(lines)


def render_field(field: np.ndarray, width: int = 72, invert: bool = False) -> str:
    """Shaded map of a 2D scalar field, downsampled to ``width`` columns.

    ``invert=True`` flips the ramp — useful for OLR, where *low* values
    mean deep cloud and should render dark (as in the paper's Fig. 1).
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 2 or field.size == 0:
        raise ValueError(f"field must be a non-empty 2D array, got shape {field.shape}")
    ny, nx = field.shape
    width = min(width, nx)
    height = max(1, round(ny * width / nx / 2))  # terminal cells are ~2:1
    # Block-max pooling: narrow features (a single convective tower) stay
    # visible where point sampling would skip them.
    xe = np.linspace(0, nx, width + 1).astype(int)
    ye = np.linspace(0, ny, height + 1).astype(int)
    sample = np.empty((height, width))
    for j in range(height):
        band = field[ye[j] : max(ye[j + 1], ye[j] + 1)]
        for i in range(width):
            sample[j, i] = band[:, xe[i] : max(xe[i + 1], xe[i] + 1)].max()
    lo, hi = float(sample.min()), float(sample.max())
    if hi == lo:
        norm = np.zeros_like(sample)
    else:
        norm = (sample - lo) / (hi - lo)
    if invert:
        norm = 1.0 - norm
    idx = np.minimum((norm * len(_SHADES)).astype(int), len(_SHADES) - 1)
    rows = ["".join(_SHADES[i] for i in row) for row in idx]
    return "\n".join(rows)


def sparkline(values: list[float], width: int = 60) -> str:
    """A one-line bar chart of a metric series (block-character ramp)."""
    ramp = "▁▂▃▄▅▆▇█"
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        return ""
    if vals.size > width:
        # average into `width` buckets
        edges = np.linspace(0, vals.size, width + 1).astype(int)
        vals = np.asarray(
            [vals[a:b].mean() if b > a else vals[min(a, vals.size - 1)] for a, b in zip(edges[:-1], edges[1:])]
        )
    lo, hi = float(vals.min()), float(vals.max())
    if hi == lo:
        return ramp[0] * vals.size
    idx = np.minimum(((vals - lo) / (hi - lo) * len(ramp)).astype(int), len(ramp) - 1)
    return "".join(ramp[i] for i in idx)
