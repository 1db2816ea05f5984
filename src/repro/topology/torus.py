"""3D torus (Blue Gene/L style) and 3D mesh interconnects.

Blue Gene/L arranges compute nodes in a 3D torus; a 1024-node partition is
an ``8 x 8 x 16`` torus [IBM Blue Gene team, IBM JRD 2005].  Messages are
routed dimension-ordered (X, then Y, then Z), each hop taking the shorter
way around the ring.  The hop metric feeds the ``hop-bytes`` metric of the
paper (Fig. 10); the contention-aware network simulator in
:mod:`repro.mpisim.netsim` prices the wire from the routes.

A dimension-ordered route is at most three *ring intervals*, one per axis:
while it corrects axis ``a`` the other two coordinates are fixed, so the
``a`` segment uses the outgoing ``±a`` links of a run of consecutive
positions on one ring.  :meth:`Torus3D.ring_link_loads` sums many
messages' bytes per link from those intervals (one difference array per
ring direction, one prefix sum) and :meth:`Torus3D.ring_crossings` tests
which messages cross a given link by interval containment; neither
materialises a hop.  :meth:`Torus3D.batch_routes_ordered` still lists
every hop, for the flow-level simulator.
"""

from __future__ import annotations

import numpy as np

from repro.topology.base import Topology

__all__ = ["Torus3D", "Mesh3D"]

# Directed link direction codes: one outgoing link per node per direction.
_DIRS3D = ("+x", "-x", "+y", "-y", "+z", "-z")

# A ring of axis ``a`` is indexed by its two other coordinates, the lower
# axis ``_LOWER[a]`` fastest; ``_RING_TO_LINK_AXES[a]`` permutes an
# ``(direction, upper, lower, position)`` block of per-link loads into the
# ``(z, y, x, direction)`` link-id layout.
_AXES = np.arange(3)
_LOWER = np.array([1, 0, 0])
_UPPER = np.array([2, 2, 1])
_RING_TO_LINK_AXES = ((1, 2, 3, 0), (1, 3, 2, 0), (3, 1, 2, 0))


class Torus3D(Topology):
    """A ``dx x dy x dz`` torus with dimension-ordered shortest-ring routing.

    Node id convention: ``node = x + dx * (y + dy * z)``; the directed link
    leaving ``node`` along axis ``a`` in direction ``sign`` is
    ``node * 6 + 2 * a + (sign < 0)``.

    Parameters
    ----------
    dims:
        The three ring sizes ``(dx, dy, dz)``.
    link_bandwidth:
        Bytes/second per directed link.  Blue Gene/L torus links are
        175 MB/s each direction; the default is that figure.
    link_latency:
        Per-message latency (seconds).
    """

    #: the six dimension orders; static adaptive routing indexes them
    DIM_ORDERS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    #: ``_AXIS_RANK[o, a]``: when order ``o`` corrects axis ``a`` (0, 1 or 2)
    _AXIS_RANK = np.argsort(np.asarray(DIM_ORDERS), axis=1)

    def __init__(
        self,
        dims: tuple[int, int, int],
        link_bandwidth: float = 175e6,
        link_latency: float = 3e-6,
    ) -> None:
        if len(dims) != 3 or any(int(d) < 1 for d in dims):
            raise ValueError(f"torus dims must be three positive ints, got {dims!r}")
        self.dims = (int(dims[0]), int(dims[1]), int(dims[2]))
        self.nnodes = self.dims[0] * self.dims[1] * self.dims[2]
        self._bw = float(link_bandwidth)
        self._lat = float(link_latency)
        if self._bw <= 0:
            raise ValueError("link_bandwidth must be positive")
        if self._lat < 0:
            raise ValueError("link_latency must be non-negative")

    # -- coordinates ----------------------------------------------------

    def coords(self, node: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised node id → ``(x, y, z)`` torus coordinates."""
        node = np.asarray(node)
        dx, dy, _dz = self.dims
        x = node % dx
        y = (node // dx) % dy
        z = node // (dx * dy)
        return x, y, z

    def node_id(self, x: int, y: int, z: int) -> int:
        """Torus coordinates → node id (inverse of :meth:`coords`)."""
        dx, dy, dz = self.dims
        if not (0 <= x < dx and 0 <= y < dy and 0 <= z < dz):
            raise ValueError(f"coords ({x},{y},{z}) outside torus {self.dims}")
        return x + dx * (y + dy * z)

    # -- metric ----------------------------------------------------------

    @staticmethod
    def _ring_dist(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
        d = np.abs(a - b)
        return np.minimum(d, size - d)

    def hops(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        src = np.asarray(src)
        dst = np.asarray(dst)
        sx, sy, sz = self.coords(src)
        tx, ty, tz = self.coords(dst)
        dx, dy, dz = self.dims
        return (
            self._ring_dist(sx, tx, dx)
            + self._ring_dist(sy, ty, dy)
            + self._ring_dist(sz, tz, dz)
        )

    # -- routing ----------------------------------------------------------

    @property
    def nlinks(self) -> int:
        return 6 * self.nnodes

    @property
    def link_bandwidth(self) -> float:
        return self._bw

    @property
    def link_latency(self) -> float:
        return self._lat

    def link_id(self, node: int, direction: int) -> int:
        """Directed link id for ``node``'s outgoing link in ``direction``.

        ``direction`` indexes :data:`_DIRS3D` (``+x,-x,+y,-y,+z,-z``).
        """
        return node * 6 + direction

    def _step(self, x: int, size: int, target: int) -> tuple[int, int]:
        """One ring step from coordinate ``x`` toward ``target``.

        Returns ``(new_coordinate, direction_sign)`` where sign is +1 for the
        increasing direction and -1 otherwise, taking the shorter way round
        (ties broken toward increasing coordinates).
        """
        fwd = (target - x) % size
        bwd = (x - target) % size
        if fwd <= bwd:
            return (x + 1) % size, +1
        return (x - 1) % size, -1

    @staticmethod
    def _axis_steps_vec(
        s: np.ndarray, t: np.ndarray, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair ``(step count, direction sign)`` along one ring axis.

        Matches :meth:`_step` walked to completion: the shorter way round,
        ties toward increasing coordinates.  The sign is constant along the
        whole walk — once the forward distance is ≤ the backward one, each
        +1 step shrinks it further — so a single upfront decision suffices.
        """
        d = t - s
        fwd = d + size * (d < 0)  # (t - s) mod size, without a division
        bwd = (size - fwd) * (fwd > 0)  # (s - t) mod size
        return np.minimum(fwd, bwd), np.where(fwd <= bwd, 1, -1)

    def route(self, src: int, dst: int) -> list[int]:
        """Dimension-ordered (X, Y, Z) shortest-ring route."""
        return self.route_ordered(src, dst, (0, 1, 2))

    def batch_routes(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.batch_routes_ordered(src, dst, (0, 1, 2))

    def batch_routes_ordered(
        self, src: np.ndarray, dst: np.ndarray, order: tuple[int, int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR routes for many pairs, all correcting dims in ``order``.

        Vectorised :meth:`route_ordered`: identical link sequences, computed
        by array arithmetic instead of per-hop walks.  Returns
        ``(links, offsets)`` as :meth:`Topology.batch_routes` does.  Callers
        with per-pair orders (static adaptive routing) group the pairs by
        order and call once per group — there are only six orders.
        """
        if sorted(order) != [0, 1, 2]:
            raise ValueError(f"order must permute (0, 1, 2), got {order!r}")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        n = src.shape[0]
        offsets = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            return np.empty(0, dtype=np.int64), offsets
        for arr in (src, dst):
            if arr.size and (arr.min() < 0 or arr.max() >= self.nnodes):
                raise ValueError(f"node ids outside [0, {self.nnodes})")
        s_xyz = np.stack(self.coords(src))  # (3, n)
        t_xyz = np.stack(self.coords(dst))
        strides = (1, self.dims[0], self.dims[0] * self.dims[1])
        # Per (pair, order position) segment: the hops correcting one axis.
        cnt = np.empty((n, 3), dtype=np.int64)
        sign = np.empty((n, 3), dtype=np.int64)
        start = np.empty((n, 3), dtype=np.int64)  # axis coord at segment start
        base = np.zeros((n, 3), dtype=np.int64)  # node id minus axis term
        stride = np.empty(3, dtype=np.int64)
        size = np.empty(3, dtype=np.int64)
        for p, axis in enumerate(order):
            c, g = self._axis_steps_vec(s_xyz[axis], t_xyz[axis], self.dims[axis])
            cnt[:, p] = c
            sign[:, p] = g
            start[:, p] = s_xyz[axis]
            stride[p] = strides[axis]
            size[p] = self.dims[axis]
            # Axes already corrected sit at the target, later ones at the
            # source; their contribution to the node id is fixed per segment.
            for q, other in enumerate(order):
                if q < p:
                    base[:, p] += strides[other] * t_xyz[other]
                elif q > p:
                    base[:, p] += strides[other] * s_xyz[other]
        np.cumsum(cnt.sum(axis=1), out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return np.empty(0, dtype=np.int64), offsets
        # Expand segments: flat position -> (segment, step-within-segment).
        seg_counts = cnt.ravel()
        seg_starts = np.concatenate(([0], np.cumsum(seg_counts)[:-1]))
        flat_seg = np.repeat(np.arange(3 * n, dtype=np.int64), seg_counts)
        k = np.arange(total, dtype=np.int64) - seg_starts[flat_seg]
        g = sign.ravel()[flat_seg]
        coord = (start.ravel()[flat_seg] + g * k) % size[flat_seg % 3]
        node = base.ravel()[flat_seg] + stride[flat_seg % 3] * coord
        axis_of = np.asarray(order, dtype=np.int64)[flat_seg % 3]
        links = node * 6 + axis_of * 2 + (g < 0)
        return links, offsets

    # -- ring intervals ---------------------------------------------------

    def _ring_intervals(
        self, src: np.ndarray, dst: np.ndarray, order_idx: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every pair's three axis segments as ``(3, n)`` arrays
        ``(ring, lo, cnt, neg)``, row ``a`` for the ``a`` segment.

        The segment uses the outgoing ``±a`` links of ring positions
        ``lo, lo + 1, ..., lo + cnt - 1`` (mod the ring size) on ring
        ``ring`` -- the index of its two other coordinates, lower axis
        fastest -- in the negative direction where ``neg``.  Axes corrected
        earlier sit at the target, later ones at the source (the rule
        behind :meth:`batch_routes_ordered`'s ``base``).  Routing is XYZ
        (``order_idx`` ``None``), or per pair ``DIM_ORDERS[order_idx[i]]``.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        for arr in (src, dst):
            if arr.size and (arr.min() < 0 or arr.max() >= self.nnodes):
                raise ValueError(f"node ids outside [0, {self.nnodes})")
        if order_idx is None:
            rank = self._AXIS_RANK[0][:, None]
        else:
            rank = self._AXIS_RANK[np.asarray(order_idx, dtype=np.int64)].T
        s_xyz, t_xyz = np.stack(self.coords(np.stack((src, dst)))).transpose(1, 0, 2)
        size = np.asarray(self.dims)[:, None]
        cnt, sign = self._axis_steps_vec(s_xyz, t_xyz, size)
        neg = sign < 0
        # Going down from s, the links used leave s, s - 1, ..., t + 1.
        lo = np.where(neg, t_xyz + 1, s_xyz)
        lo[lo == size] = 0
        # at[a, b]: axis b's coordinate while the route corrects axis a
        at = np.where(rank[None] < rank[:, None], t_xyz, s_xyz)
        ring = at[_AXES, _LOWER] + size[_LOWER] * at[_AXES, _UPPER]
        return ring, lo, cnt, neg

    def ring_link_loads(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        order_idx: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bytes on each directed link when pair ``i`` sends ``nbytes[i]``.

        Returns ``(links, loads)``: the loaded link ids, ascending, and
        their byte totals -- the per-link sums of routing every pair
        (:meth:`route_ordered`), with no hop materialised.  One
        ``bincount`` puts ``+bytes`` at each interval's first position and
        ``-bytes`` one past its last (an interval past the ring's end
        splits in two) into one ``(direction, ring, size + 1)`` block per
        axis; a prefix sum along each ring, written straight into the
        link-id layout, turns the blocks into loads.  Routing as in
        :meth:`_ring_intervals`.

        Byte counts are integer-valued, so every partial sum is an exact
        integer and each load equals any other summation of the same
        bytes bit for bit; with positive byte counts a link is returned
        exactly when some route crosses it.
        """
        ring, lo, cnt, neg = self._ring_intervals(src, dst, order_idx)
        size = np.asarray(self.dims)[:, None]
        nrings = self.nnodes // size
        block = 2 * nrings * (size + 1)
        start = np.cumsum(block) - block[:, 0]
        row = (neg * nrings + ring) * (size + 1) + start[:, None]
        end = lo + cnt
        wrap = end > size
        weight = np.broadcast_to(np.asarray(nbytes, dtype=np.float64), ring.shape)
        diff = np.bincount(
            np.concatenate(
                (
                    (row + lo).ravel(),
                    (row + np.minimum(end, size)).ravel(),
                    row[wrap],
                    (row + end - size)[wrap],
                )
            ),
            weights=np.concatenate(
                (weight.ravel(), -weight.ravel(), weight[wrap], -weight[wrap])
            ),
            minlength=int(block.sum()),
        )
        dx, dy, dz = self.dims
        out = np.empty((dz, dy, dx, 6), dtype=np.float64)
        for axis in range(3):
            ring_size = self.dims[axis]
            rings = diff[start[axis] : start[axis] + block[axis, 0]].reshape(
                2, self.dims[_UPPER[axis]], self.dims[_LOWER[axis]], ring_size + 1
            )
            np.cumsum(
                rings[..., :ring_size].transpose(_RING_TO_LINK_AXES[axis]),
                axis=2 - axis,
                out=out[..., 2 * axis : 2 * axis + 2],
            )
        flat = out.reshape(-1)
        links = np.flatnonzero(flat != 0.0)
        return links, flat[links]

    def ring_crossings(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        link: int,
        order_idx: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boolean mask of the pairs whose route crosses directed ``link``.

        Pair ``i`` crosses ``link = node * 6 + 2 * a + d`` exactly when its
        ``a`` segment runs in direction ``d`` on ``node``'s ring and
        contains ``node``'s position ``p``: ``(p - lo) mod size < cnt``.
        Routing as in :meth:`_ring_intervals`.
        """
        if not 0 <= link < self.nlinks:
            raise ValueError(f"link {link} outside [0, {self.nlinks})")
        node, code = divmod(int(link), 6)
        axis, down = divmod(code, 2)
        here = [int(v) for v in self.coords(np.asarray(node))]
        lower, upper = _LOWER[axis], _UPPER[axis]
        ring, lo, cnt, neg = self._ring_intervals(src, dst, order_idx)
        return (
            (neg[axis] == bool(down))
            & (ring[axis] == here[lower] + self.dims[lower] * here[upper])
            & ((here[axis] - lo[axis]) % self.dims[axis] < cnt[axis])
        )

    def route_ordered(
        self, src: int, dst: int, order: tuple[int, int, int]
    ) -> list[int]:
        """Route correcting dimensions in the given ``order``.

        Real torus networks spread load by varying the dimension order per
        packet (static adaptive routing); passing a per-message order (e.g.
        hashed from the endpoints) models that.  ``order`` must be a
        permutation of ``(0, 1, 2)``.
        """
        if sorted(order) != [0, 1, 2]:
            raise ValueError(f"order must permute (0, 1, 2), got {order!r}")
        self.validate_node(src)
        self.validate_node(dst)
        if src == dst:
            return []
        cur = [int(v) for v in self.coords(np.asarray(src))]
        tgt = [int(v) for v in self.coords(np.asarray(dst))]
        links: list[int] = []
        for axis in order:
            size = self.dims[axis]
            c = cur[axis]
            while c != tgt[axis]:
                here = list(cur)
                here[axis] = c
                node = self.node_id(*here)
                c, sign = self._step(c, size, tgt[axis])
                direction = axis * 2 + (0 if sign > 0 else 1)
                links.append(self.link_id(node, direction))
            cur[axis] = tgt[axis]
        return links

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Torus3D(dims={self.dims})"


class Mesh3D(Torus3D):
    """A 3D mesh: a :class:`Torus3D` without the wrap-around links.

    Real Blue Gene/L partitions smaller than a midplane are *meshes*, not
    tori — the wrap links only close on full-midplane allocations.  The
    mesh shares the torus's dimension-ordered routing but always travels
    the direct way, so worst-case distances double.  Used by the
    torus-vs-mesh ablation.
    """

    @staticmethod
    def _ring_dist(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
        return np.abs(a - b)

    def _step(self, x: int, size: int, target: int) -> tuple[int, int]:
        if target > x:
            return x + 1, +1
        return x - 1, -1

    @staticmethod
    def _axis_steps_vec(
        s: np.ndarray, t: np.ndarray, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return np.abs(t - s), np.where(t >= s, 1, -1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mesh3D(dims={self.dims})"

