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
positions on one ring.  An axis segment depends only on the pair's two
coordinates along that axis, so each topology tabulates every
coordinate pair's segment once (:meth:`Torus3D._pair_table`) and a
message's segments are three table lookups.  The machine's *rows* are
its rings in each direction; a message set's segments fall on a few of
them, and one prefix sum over only those rows
(:meth:`Torus3D._touched_rows`) gives the bytes on every link they
cover.  :meth:`Torus3D.ring_busiest_load` reads the busiest link's load
off it, and :meth:`Torus3D.ring_link_loads` the per-link map;
:meth:`Torus3D.ring_crossings` tests which messages cross a given link
by interval containment.  None of them materialises a hop.
:meth:`Torus3D.batch_routes` walks the same intervals hop by hop, for
the flow-level simulator.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.topology.base import Topology

__all__ = ["Torus3D", "Mesh3D"]

# Directed link direction codes: one outgoing link per node per direction.
_DIRS3D = ("+x", "-x", "+y", "-y", "+z", "-z")

# A ring of axis ``a`` is indexed by its two other coordinates, the lower
# axis ``_LOWER[a]`` fastest.
_AXES = np.arange(3)
_LOWER = np.array([1, 0, 0])
_UPPER = np.array([2, 2, 1])


class _PairTable(NamedTuple):
    """Every axis segment of a topology, one entry per coordinate pair,
    and every row of its machine.

    Entry ``s * S + t + offset[a]`` describes the ``a`` segment of a route
    from coordinate ``s`` to ``t`` on an axis of size ``S``: the outgoing
    ``±a`` links of ring positions ``lo, ..., lo + cnt - 1`` (mod ``S``),
    negative where ``neg``.

    A *row* is one ring in one direction, numbered machine-wide as
    ``(axis, direction, ring)``; a segment on ring ``r`` runs on row
    ``row0[key] + r``.  Every row is ``width = max(dims) + 1`` columns
    wide, whatever its axis, and ``pos[:, key]`` are the segment's three
    events in its row: ``+bytes`` at ``lo``, ``-bytes`` one past the
    last position (wrapped), and ``+bytes`` at column 0 if the segment
    runs past the ring's end, else in the last column ``width - 1``,
    which no reader sums.

    A row of an axis shorter than the longest has columns at or past its
    own ring size that are not links.  The prefix sum there is exactly
    the row's wrapping segments' bytes, and every wrapping segment covers
    the row's last position, so those columns never exceed a link's
    load: the maximum over every column but the last is the busiest
    link's.  (On a mesh nothing wraps and they are 0.)  The per-link map
    masks them with ``ring_size``.
    """

    lo: np.ndarray
    cnt: np.ndarray
    neg: np.ndarray
    row0: np.ndarray
    pos: np.ndarray
    #: ``(3, 1)``: each axis's ring size and its key offset
    size: np.ndarray
    offset: np.ndarray
    #: per row: the link id at position 0, the link-id step per position,
    #: and its ring size
    link0: np.ndarray
    stride: np.ndarray
    ring_size: np.ndarray
    width: int


class Torus3D(Topology):
    """A ``dx x dy x dz`` torus with dimension-ordered shortest-ring routing.

    Node id convention: ``node = x + dx * (y + dy * z)``; the directed link
    leaving ``node`` along axis ``a`` in direction ``sign`` is
    ``node * 6 + 2 * a + (sign < 0)``.

    The vector kernels (:meth:`hops` and the ring intervals behind
    :meth:`batch_routes`, :meth:`ring_busiest_load`,
    :meth:`ring_link_loads` and :meth:`ring_crossings`) gather
    coordinates from one ``(3, nnodes)`` int64 table of :meth:`coords`
    (24 bytes per node: 96 KB at 4 096 nodes).  The ring kernels then
    look each axis segment up in one table per axis, indexed by the
    pair's (source, target) coordinates, beside one entry per row of the
    machine (:meth:`_pair_table`): ``sum(S * S)`` entries of 49 bytes
    and 24 bytes per row, 73 KB at 16 x 16 x 16.  Both tables are built
    on the first call and never at construction; the scalar
    :meth:`route_ordered` keeps the arithmetic, and :meth:`hops` its
    ring distances.

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
        self._xyz: np.ndarray | None = None
        self._pairs: _PairTable | None = None

    # -- coordinates ----------------------------------------------------

    def coords(self, node: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised node id → ``(x, y, z)`` torus coordinates."""
        node = np.asarray(node)
        dx, dy, _dz = self.dims
        x = node % dx
        y = (node // dx) % dy
        z = node // (dx * dy)
        return x, y, z

    def _gather_xyz(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(3, ...)`` coordinates of nodes ``src`` and ``dst``, taken
        from one ``(3, nnodes)`` int64 table of :meth:`coords`.  The table
        is built on first use (never at import) and assigned whole, so
        threads racing the first call at worst build it twice."""
        xyz = self._xyz
        if xyz is None:
            xyz = np.stack(self.coords(np.arange(self.nnodes, dtype=np.int64)))
            self._xyz = xyz
        return np.take(xyz, src, axis=1), np.take(xyz, dst, axis=1)

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
        src, dst = np.broadcast_arrays(src, dst)
        size = np.reshape(self.dims, (3,) + (1,) * src.ndim)
        return self._ring_dist(*self._gather_xyz(src, dst), size).sum(axis=0)

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
        self,
        src: np.ndarray,
        dst: np.ndarray,
        order_idx: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR routes for many pairs, walked hop by hop along their ring
        intervals: pair ``i``'s links are :meth:`route_ordered`'s, in its
        order, correcting axes in ``DIM_ORDERS[order_idx[i]]`` (XYZ when
        ``order_idx`` is ``None``).  Returns ``(links, offsets)`` as
        :meth:`Topology.batch_routes` does.

        Along a segment the link id moves by a fixed step per hop (the
        node stride of its axis, times the six links per node) and jumps
        back by a ring's worth once if the interval wraps.  Each segment's
        first and last link, step and wrap are computed once; the hops are
        one running sum of those steps, each segment's first hop stepping
        from the hop before it.
        """
        ring, lo, cnt, neg = self._ring_intervals(src, dst, order_idx)
        n = ring.shape[1]
        # Per (axis, pair) segment, in link ids: the link leaving position
        # 0 of its ring, the step between positions, and its first and
        # last link; a wrapping interval jumps at hop ``jump_at``.
        size = np.asarray(self.dims)[:, None]
        stride = 6 * np.array([[1], [self.dims[0]], [self.dims[0] * self.dims[1]]])
        upper, lower = np.divmod(ring, size[_LOWER])
        link0 = lower * stride[_LOWER] + upper * stride[_UPPER] + 2 * _AXES[:, None] + neg
        step = np.where(neg, -stride, stride)
        end = lo + cnt
        wraps = end > size
        top = end - 1 - size * wraps  # the interval's last position
        first = link0 + stride * np.where(neg, top, lo)
        last = link0 + stride * np.where(neg, lo, top)
        jump_at = np.where(neg, end - size, size - lo)
        # The segments pair by pair, each pair's in its correcting order.
        axes = _AXES if order_idx is None else np.asarray(self.DIM_ORDERS)[order_idx]
        seg = (axes * n + np.arange(n)[:, None]).ravel()
        count = cnt.ravel()[seg]
        ends = np.cumsum(count)
        offsets = np.zeros(n + 1, dtype=np.int64)
        offsets[1:] = ends[2::3]
        starts = ends - count
        links = np.repeat(step.ravel()[seg], count)
        # A segment's first hop steps from the last link before it.
        used = count > 0
        moving = seg[used]
        lasts = last.ravel()[moving]
        links[starts[used]] = first.ravel()[moving] - np.concatenate(([0], lasts[:-1]))
        wrapped = wraps.ravel()[seg]
        at = seg[wrapped]
        links[starts[wrapped] + jump_at.ravel()[at]] -= (step * size).ravel()[at]
        return np.cumsum(links, out=links), offsets

    # -- ring intervals ---------------------------------------------------

    def _pair_table(self) -> _PairTable:
        """Every axis segment, tabulated by (source, target) coordinate,
        and every row of the machine.

        Built from :meth:`_axis_steps_vec`, evaluated once per coordinate
        pair of each axis, on first use (never at import or construction)
        and assigned whole, so threads racing the first call at worst
        build it twice.  The three axes are concatenated, axis ``a``'s
        pairs from key ``offset[a]`` on and its rows from
        ``2 * sum(nrings[:a])`` on, the negative direction's after the
        positive's.
        """
        table = self._pairs
        if table is not None:
            return table
        size = np.asarray(self.dims)
        nrings = self.nnodes // size
        width = int(size.max()) + 1
        first_row = np.concatenate(([0], np.cumsum(2 * nrings)))
        axes = []
        for axis, ring_size in enumerate(self.dims):
            s, t = np.divmod(np.arange(ring_size * ring_size), ring_size)
            cnt, sign = self._axis_steps_vec(s, t, ring_size)
            neg = sign < 0
            # Going down from s, the links used leave s, s - 1, ..., t + 1.
            lo = np.where(neg, t + 1, s)
            lo[lo == ring_size] = 0
            end = lo + cnt
            wrap = end > ring_size
            row0 = first_row[axis] + neg * nrings[axis]
            pos = np.stack((lo, end - ring_size * wrap, (width - 1) * ~wrap))
            axes.append((lo, cnt, neg, row0, pos))
        lo, cnt, neg, row0, pos = (np.concatenate(f, axis=-1) for f in zip(*axes))
        # Row (axis, direction, ring): the ring's two other coordinates,
        # lower axis fastest, give the link id of its position 0.
        axis = np.repeat(_AXES, 2 * nrings)
        down, ring = np.divmod(np.arange(first_row[-1]) - first_row[axis], nrings[axis])
        upper, lower = np.divmod(ring, size[_LOWER][axis])
        step = 6 * np.array([1, self.dims[0], self.dims[0] * self.dims[1]])
        table = _PairTable(
            lo,
            cnt,
            neg,
            row0,
            pos,
            size=size[:, None],
            offset=(np.cumsum(size**2) - size**2)[:, None],
            link0=lower * step[_LOWER][axis] + upper * step[_UPPER][axis] + 2 * axis + down,
            stride=step[axis],
            ring_size=size[axis],
            width=width,
        )
        self._pairs = table
        return table

    def _segment_keys(
        self, src: np.ndarray, dst: np.ndarray, order_idx: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every pair's three axis segments as ``(3, n)`` arrays
        ``(ring, key)``, ``[a]`` for the ``a`` segment: the ring it runs
        on -- the index of its two other coordinates, lower axis fastest --
        and its entry in :meth:`_pair_table`.

        Axes corrected earlier sit at the target, later ones at the source.
        Routing is XYZ (``order_idx`` ``None``), where the x segment runs
        on the source's ring and the z segment on the target's, or per
        pair ``DIM_ORDERS[order_idx[i]]``.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        # A table gather would wrap a negative id instead of failing.
        for arr in (src, dst):
            if arr.size and (arr.min() < 0 or arr.max() >= self.nnodes):
                raise ValueError(f"node ids outside [0, {self.nnodes})")
        s_xyz, t_xyz = self._gather_xyz(src, dst)
        table = self._pair_table()
        dx, dy, _dz = self.dims
        if order_idx is None:
            ring = np.empty_like(s_xyz)
            np.floor_divide(src, dx, out=ring[0])
            np.multiply(s_xyz[2], dx, out=ring[1])
            ring[1] += t_xyz[0]
            np.remainder(dst, dx * dy, out=ring[2])
        else:
            rank = self._AXIS_RANK[np.asarray(order_idx, dtype=np.int64)].T
            # at[a, b]: axis b's coordinate while the route corrects axis a
            at = np.where(rank[None] < rank[:, None], t_xyz, s_xyz)
            ring = at[_AXES, _LOWER] + table.size[_LOWER] * at[_AXES, _UPPER]
        # The key, s * S + t + offset, built in the gathered source array.
        key = s_xyz
        key *= table.size
        key += t_xyz
        key += table.offset
        return ring, key

    def _ring_intervals(
        self, src: np.ndarray, dst: np.ndarray, order_idx: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every pair's three axis segments as ``(3, n)`` arrays
        ``(ring, lo, cnt, neg)``, ``[a]`` for the ``a`` segment.

        The segment uses the outgoing ``±a`` links of ring positions
        ``lo, lo + 1, ..., lo + cnt - 1`` (mod the ring size) on ring
        ``ring``, in the negative direction where ``neg``; ``(lo, cnt,
        neg)`` are gathered from :meth:`_pair_table` and the ring comes
        from :meth:`_segment_keys`, which also sets the routing.
        """
        ring, key = self._segment_keys(src, dst, order_idx)
        table = self._pair_table()
        return (
            ring,
            np.take(table.lo, key),
            np.take(table.cnt, key),
            np.take(table.neg, key),
        )

    def _touched_rows(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        order_idx: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The prefix sums of the rows pair ``i``'s segments run on, when
        it sends ``nbytes[i]``.

        Returns ``(touched, block)``: a mask over the machine's rows (see
        :class:`_PairTable`) and one ``(touched rows, width)`` block,
        row ``k`` for the ``k``-th touched row in row order.  Column
        ``c`` of a row holds the bytes on the link leaving position ``c``
        of its ring, below the row's ring size; past it, see
        :class:`_PairTable`.  One ``cumsum`` of the mask ranks the
        touched rows, each segment's three events (its table entry's, in
        its rank's block row) go in with one ``bincount``, and one
        row-wise ``cumsum`` turns them into loads; no per-message axis
        arithmetic is done and nothing the size of the machine's links
        is allocated.  Routing as in :meth:`_segment_keys`.

        Byte counts are integer-valued, so every partial sum is an exact
        integer and each load equals any other summation of the same
        bytes bit for bit.
        """
        ring, key = self._segment_keys(src, dst, order_idx)
        table = self._pair_table()
        row = np.take(table.row0, key)
        row += ring
        touched = np.zeros(table.ring_size.size, dtype=bool)
        touched[row] = True
        # Each row's start in the flat block, counted in touched rows.
        start = np.cumsum(touched)
        start -= 1
        start *= table.width
        events = np.take(table.pos, key, axis=1)
        events += np.take(start, row)
        # Each event kind's signed bytes, once per axis.
        weights = np.empty(events.shape)
        weights[:] = nbytes
        np.negative(weights[1], out=weights[1])
        block = np.bincount(
            events.ravel(),
            weights=weights.ravel(),
            minlength=int(start[-1]) + table.width,
        ).reshape(-1, table.width)
        return touched, np.cumsum(block, axis=1, out=block)

    def ring_busiest_load(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        order_idx: np.ndarray | None = None,
    ) -> float:
        """The bytes on the busiest directed link when pair ``i`` sends
        ``nbytes[i]``: the largest per-link sum of routing every pair
        (:meth:`route_ordered`), 0.0 for no pairs.  It is the maximum of
        :meth:`_touched_rows`' block without its last column, so no link
        id is formed."""
        _touched, block = self._touched_rows(src, dst, nbytes, order_idx)
        if not block.size:
            return 0.0
        return float(block[:, :-1].max())

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
        (:meth:`route_ordered`), with no hop materialised.  They are the
        nonzero columns of :meth:`_touched_rows`' block below each row's
        ring size, at link id ``link0 + column * stride`` of the row,
        put in order by one ``argsort``.  With positive byte counts a
        link is returned exactly when some route crosses it.
        """
        touched, block = self._touched_rows(src, dst, nbytes, order_idx)
        table = self._pair_table()
        rows = np.flatnonzero(touched)
        column = np.arange(table.width)
        loaded = (block != 0.0) & (column < table.ring_size[rows, None])
        links = table.link0[rows, None] + table.stride[rows, None] * column
        links = links[loaded]
        order = np.argsort(links)
        return links[order], block[loaded][order]

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
        Only the ``a`` segments' ``(lo, cnt, neg)`` are gathered from
        :meth:`_pair_table`.  Routing as in :meth:`_segment_keys`.
        """
        if not 0 <= link < self.nlinks:
            raise ValueError(f"link {link} outside [0, {self.nlinks})")
        node, code = divmod(int(link), 6)
        axis, down = divmod(code, 2)
        here = [int(v) for v in self.coords(np.asarray(node))]
        lower, upper = _LOWER[axis], _UPPER[axis]
        ring, key = self._segment_keys(src, dst, order_idx)
        table = self._pair_table()
        key = key[axis]
        return (
            (np.take(table.neg, key) == bool(down))
            & (ring[axis] == here[lower] + self.dims[lower] * here[upper])
            & ((here[axis] - np.take(table.lo, key)) % self.dims[axis] < np.take(table.cnt, key))
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

