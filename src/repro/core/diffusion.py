"""Tree-based hierarchical diffusion (paper §IV-B, Algorithm 3).

The previous allocation's tree is *edited* rather than rebuilt: deleted
nests leave free slots, new nests fill the slot whose sibling weight is
closest, and retained nests keep their tree positions — so their new
rectangles overlap their old ones, the redistribution flows between
neighbouring processes, and (on torus networks with a topology-aware
mapping) hop-bytes drop sharply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.allocation import Allocation
from repro.core.strategy import ReallocationStrategy
from repro.grid.procgrid import ProcessorGrid
from repro.tree.edit import diffusion_edit
from repro.tree.huffman import build_huffman

if TYPE_CHECKING:
    from repro.core.redistribution import MoveMap

__all__ = ["DiffusionStrategy"]


class DiffusionStrategy(ReallocationStrategy):
    """Reorganise the existing allocation tree (Algorithm 3)."""

    name = "diffusion"

    def reallocate(
        self,
        old: Allocation | None,
        weights: dict[int, float],
        grid: ProcessorGrid,
        nest_sizes: dict[int, tuple[int, int]] | None = None,
        moves: MoveMap | None = None,
    ) -> Allocation:
        self.check_reallocate_args(old, weights, grid)
        if old is None or old.tree is None:
            # First adaptation point: nothing to diffuse from; the initial
            # allocation is the Huffman construction, as in the paper.
            return Allocation.from_tree(build_huffman(weights), grid, weights)
        deleted, retained, new = self.split_churn(old, weights)
        tree = diffusion_edit(old.tree, deleted, retained, new)
        return Allocation.from_tree(tree, grid, weights)
