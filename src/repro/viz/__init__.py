"""Plain-text visualisation of allocations and fields.

The paper communicates its ideas through small diagrams (Figs. 2–8) and
field maps (Figs. 1, 9).  This package renders the same artefacts as
terminal text, so examples and debugging sessions can *see* an allocation:

* :func:`render_allocation` — the processor grid with one glyph per nest
  (the paper's Fig. 2b / 4b / 8d partition diagrams);
* :func:`render_allocation_diff` — old vs new side by side with the
  per-nest overlap annotation;
* :func:`render_field` — a downsampled shaded map of a QCLOUD/OLR field
  (the paper's Fig. 1);
* :func:`sparkline` — compact per-step metric series.
"""

from repro.viz.render import (
    render_allocation,
    render_allocation_diff,
    render_field,
    sparkline,
)

__all__ = [
    "render_allocation",
    "render_allocation_diff",
    "render_field",
    "sparkline",
]
