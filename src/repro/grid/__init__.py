"""Processor-grid geometry: rectangles, rank conventions, block decomposition.

The parent weather simulation runs on a logical ``Px x Py`` process grid.
Every nest is allocated a *sub-rectangle* of that grid (paper §IV); one
processor executes one block of the nest domain.  This package provides the
rectangle algebra (intersection, containment, splitting), the rank
conventions of the paper's Table I (row-major, start rank = north-west
corner), balanced block decompositions of a nest over its rectangle, and
the sender/receiver ownership-overlap computation behind Fig. 11.
"""

from repro.grid.rect import Rect
from repro.grid.procgrid import ProcessorGrid
from repro.grid.block import BlockDecomposition, split_evenly
from repro.grid.overlap import transfer_matrix

__all__ = [
    "Rect",
    "ProcessorGrid",
    "BlockDecomposition",
    "split_evenly",
    "transfer_matrix",
]
