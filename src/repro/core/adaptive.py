"""Adaptive-reset strategy (extension beyond the paper).

§IV-B admits the diffusion edit's cost: "the resulting modified tree may no
longer be a Huffman tree" — after many adaptation points the accumulated
edits can leave an unbalanced tree whose layout is skewed (slower nests)
and whose future edits preserve less overlap.  §IV-C's dynamic scheme
hedges per step but never repairs the tree itself.

:class:`AdaptiveResetStrategy` extends the diffusion strategy with a
*quality-triggered rebuild*: it diffuses as usual, but when the laid-out
partition's quality drops below a threshold — measured as the
area-weighted mean aspect ratio of the nest rectangles relative to the
scratch partition's — it pays one scratch rebuild to restore a Huffman
tree, then resumes diffusing from the fresh tree.  One knob
(``quality_threshold``) trades occasional expensive reconfigurations for
long-run execution efficiency; the accompanying ablation benchmark sweeps
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.allocation import Allocation
from repro.core.diffusion import DiffusionStrategy
from repro.core.scratch import ScratchStrategy
from repro.core.strategy import ReallocationStrategy
from repro.grid.procgrid import ProcessorGrid

if TYPE_CHECKING:
    from repro.core.redistribution import MoveMap

__all__ = ["AdaptiveResetStrategy", "layout_quality"]


def layout_quality(allocation: Allocation) -> float:
    """Area-weighted mean aspect ratio of an allocation's rectangles.

    1.0 means every nest got a square; larger is worse (more halo per
    processor, the paper's Fig. 7 effect).  Empty allocations score 1.0.

    Validation: ``allocation`` is a frozen :class:`Allocation` whose
    geometry was already validated at construction.
    """
    if allocation.is_empty:
        return 1.0
    total = sum(r.area for r in allocation.rects.values())
    return sum(r.aspect_ratio * r.area for r in allocation.rects.values()) / total


class AdaptiveResetStrategy(ReallocationStrategy):
    """Diffuse normally; rebuild from scratch when layout quality degrades.

    Parameters
    ----------
    quality_threshold:
        Rebuild when ``layout_quality(diffused) >
        quality_threshold * layout_quality(scratch)``.  1.0 rebuilds on any
        degradation (most scratch-like); large values never rebuild (pure
        diffusion).  The default 1.25 tolerates mild skew.
    """

    name = "adaptive-reset"

    def __init__(self, quality_threshold: float = 1.25) -> None:
        if quality_threshold < 1.0:
            raise ValueError(
                f"quality_threshold must be >= 1.0, got {quality_threshold}"
            )
        self.quality_threshold = quality_threshold
        self._diffusion = DiffusionStrategy()
        self._scratch = ScratchStrategy()
        #: steps at which a rebuild fired (for the ablation's accounting)
        self.reset_steps: list[int] = []
        self._step = 0

    def reallocate(
        self,
        old: Allocation | None,
        weights: dict[int, float],
        grid: ProcessorGrid,
        nest_sizes: dict[int, tuple[int, int]] | None = None,
        moves: MoveMap | None = None,
    ) -> Allocation:
        self.check_reallocate_args(old, weights, grid)
        self._step += 1
        diffused = self._diffusion.reallocate(old, weights, grid, nest_sizes)
        if old is None:
            return diffused
        scratch = self._scratch.reallocate(old, weights, grid, nest_sizes)
        if layout_quality(diffused) > self.quality_threshold * layout_quality(scratch):
            self.reset_steps.append(self._step)
            return scratch
        return diffused
