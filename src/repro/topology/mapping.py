"""Process-grid → physical-processor mappings.

WRF decomposes its domain over a logical 2D process grid ``Px x Py``
(rank = ``y * Px + x``; rank 0 is the north-west corner, matching the
start-rank convention of the paper's Table I).  How those ranks land on the
physical machine determines the hop counts behind the paper's hop-bytes
metric.

For Blue Gene/L the paper develops "a folding-based topology-aware mapping
[14] that maps the neighbouring processes to neighbouring processors on the
3D torus" — :class:`FoldedMapping` below reproduces that construction:
both grid axes are folded boustrophedon (snake) into (torus-axis, fold)
pairs and the fold indices form the long Z dimension, so grid X-neighbours
are always one torus hop apart and grid Y-neighbours are one hop apart
except when crossing one of the few fold boundaries.

:class:`RowMajorMapping` (naive rank ``i`` → node ``i``) and
:class:`RandomMapping` exist as ablation baselines.
"""

from __future__ import annotations

import numpy as np

from repro.topology.base import Topology
from repro.topology.torus import Torus3D
from repro.util.rng import make_rng

__all__ = ["ProcessMapping", "RowMajorMapping", "FoldedMapping", "RandomMapping"]


class ProcessMapping:
    """Bijection between logical ranks and physical node ids.

    Parameters
    ----------
    topology:
        The physical interconnect.
    table:
        ``table[rank] == node id``; must be a permutation of
        ``range(topology.nnodes)``.
    """

    def __init__(self, topology: Topology, table: np.ndarray) -> None:
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 1 or table.shape[0] != topology.nnodes:
            raise ValueError(
                f"mapping table must have length {topology.nnodes}, got shape {table.shape}"
            )
        if not np.array_equal(np.sort(table), np.arange(topology.nnodes)):
            raise ValueError("mapping table must be a permutation of node ids")
        self.topology = topology
        self.table = table

    @property
    def nranks(self) -> int:
        return self.topology.nnodes

    def node_of(self, ranks: np.ndarray) -> np.ndarray:
        """Physical node id(s) for logical ``ranks`` (vectorised).

        Raises ``ValueError`` naming the first rank outside
        ``[0, nranks)``.
        """
        ranks = np.asarray(ranks)
        try:
            # Indexing would wrap a negative rank onto another rank's node.
            if ranks.size and ranks.min() < 0:
                raise IndexError("negative rank")
            return self.table[ranks]
        except IndexError:
            flat = ranks.ravel()
            outside = flat[(flat < 0) | (flat >= self.nranks)]
            if not outside.size:
                raise
            raise ValueError(
                f"rank {int(outside[0])} outside [0, {self.nranks})"
            ) from None

    def rank_hops(self, src_ranks: np.ndarray, dst_ranks: np.ndarray) -> np.ndarray:
        """Hop distance between logical ranks, after mapping (vectorised)."""
        return self.topology.hops(self.node_of(src_ranks), self.node_of(dst_ranks))

    def route(self, src_rank: int, dst_rank: int) -> list[int]:
        """Physical route (link ids) between two logical ranks."""
        return self.topology.route(int(self.node_of(src_rank)), int(self.node_of(dst_rank)))

    def mean_neighbour_hops(self, px: int, py: int) -> float:
        """Average hop distance between 4-neighbours of the ``px x py`` grid.

        A quality measure for the mapping: 1.0 means every grid neighbour is
        a physical neighbour (perfect embedding).
        """
        if px * py != self.nranks:
            raise ValueError(f"grid {px}x{py} does not match {self.nranks} ranks")
        ranks = np.arange(self.nranks).reshape(py, px)  # [y, x]
        pairs_src = []
        pairs_dst = []
        if px > 1:
            pairs_src.append(ranks[:, :-1].ravel())
            pairs_dst.append(ranks[:, 1:].ravel())
        if py > 1:
            pairs_src.append(ranks[:-1, :].ravel())
            pairs_dst.append(ranks[1:, :].ravel())
        src = np.concatenate(pairs_src)
        dst = np.concatenate(pairs_dst)
        return float(self.rank_hops(src, dst).mean())


class RowMajorMapping(ProcessMapping):
    """Naive mapping: rank ``i`` runs on physical node ``i``."""

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology, np.arange(topology.nnodes))


class RandomMapping(ProcessMapping):
    """Random permutation mapping (worst-case baseline for ablations)."""

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        rng = make_rng(seed)
        super().__init__(topology, rng.permutation(topology.nnodes))


def _snake(i: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Boustrophedon fold of a 1D index into (within-block, block) pairs.

    Within-block positions reverse direction in odd blocks so that
    consecutive ``i`` remain adjacent across block boundaries.
    """
    blk = i // block
    pos = i % block
    pos = np.where(blk % 2 == 1, block - 1 - pos, pos)
    return pos, blk


class FoldedMapping(ProcessMapping):
    """Topology-aware folding of a 2D process grid onto a 3D torus.

    The grid X axis (length ``Px``) is folded into ``(A, U)`` where ``A``
    spans the torus X ring (size ``dx``) and ``U`` counts folds; likewise the
    grid Y axis into ``(B, V)`` over the torus Y ring.  The fold pair
    ``(U, V)`` indexes the torus Z ring as ``z = U + (Px/dx) * V``.
    Requirements: ``dx | Px``, ``dy | Py`` and ``(Px/dx) * (Py/dy) == dz``.

    Grid X-neighbours are then always exactly one torus hop apart (the snake
    makes fold crossings a single Z-step); grid Y-neighbours are one hop
    apart except when crossing one of the ``Py/dy - 1`` Y-fold boundaries.
    """

    def __init__(self, topology: Torus3D, px: int, py: int) -> None:
        if not isinstance(topology, Torus3D):
            raise TypeError("FoldedMapping requires a Torus3D topology")
        dx, dy, dz = topology.dims
        if px * py != topology.nnodes:
            raise ValueError(
                f"grid {px}x{py} has {px * py} ranks but torus has {topology.nnodes} nodes"
            )
        if px % dx != 0 or py % dy != 0:
            raise ValueError(
                f"grid {px}x{py} not foldable onto torus {topology.dims}: "
                f"need {dx} | {px} and {dy} | {py}"
            )
        ux, uy = px // dx, py // dy
        if ux * uy != dz:
            raise ValueError(
                f"fold counts {ux}*{uy} != torus Z size {dz} for grid {px}x{py}"
            )
        self.grid = (px, py)
        gx, gy = np.meshgrid(np.arange(px), np.arange(py), indexing="xy")
        gx = gx.ravel()  # rank = gy * px + gx  (row-major, x fastest)
        gy = gy.ravel()
        a, u = _snake(gx, dx)
        b, v = _snake(gy, dy)
        z = u + ux * v
        nodes = a + dx * (b + dy * z)
        super().__init__(topology, nodes)
