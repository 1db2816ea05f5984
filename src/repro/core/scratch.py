"""Partition from scratch (paper §IV-A).

At every adaptation point the Huffman tree is rebuilt from the new weights
alone — "the tree construction does not consider the current allocation of
processors" — which gives the most square-like rectangles (best execution
time) but can place a retained nest anywhere, producing non-overlapping
sender/receiver sets and high redistribution cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.allocation import Allocation
from repro.core.strategy import ReallocationStrategy
from repro.grid.procgrid import ProcessorGrid
from repro.tree.huffman import build_huffman

if TYPE_CHECKING:
    from repro.core.redistribution import MoveMap

__all__ = ["ScratchStrategy"]


class ScratchStrategy(ReallocationStrategy):
    """Rebuild the Huffman allocation tree from scratch every time."""

    name = "scratch"

    def reallocate(
        self,
        old: Allocation | None,
        weights: dict[int, float],
        grid: ProcessorGrid,
        nest_sizes: dict[int, tuple[int, int]] | None = None,
        moves: MoveMap | None = None,
    ) -> Allocation:
        self.check_reallocate_args(old, weights, grid)
        tree = build_huffman(weights)
        return Allocation.from_tree(tree, grid, weights)
