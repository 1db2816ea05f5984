"""Plain-text rendering of the paper's tables and figure series.

The benchmark harness prints each reproduced table/figure as an ASCII table
(rows and columns mirroring the paper) so that ``pytest benchmarks/`` output
can be compared against the publication side by side.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["format_table", "format_series"]


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    Floats are shown with 4 significant digits; all other cells via ``str``.
    """
    str_rows = [[_stringify(c) for c in row] for row in rows]
    ncols = len(headers)
    for r in str_rows:
        if len(r) != ncols:
            raise ValueError(f"row has {len(r)} cells, expected {ncols}: {r}")
    widths = [len(h) for h in headers]
    for r in str_rows:
        for i, c in enumerate(r):
            widths[i] = max(widths[i], len(c))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_series(
    name: str,
    xs: Sequence[object],
    ys: Sequence[float],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render a figure data series (one paper curve) as two aligned columns."""
    if len(xs) != len(ys):
        raise ValueError(f"series {name!r}: {len(xs)} x-values vs {len(ys)} y-values")
    rows = list(zip(xs, ys))
    body = format_table([x_label, y_label], rows, title=f"series: {name}")
    return body

