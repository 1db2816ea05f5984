"""Abstract interconnect topology.

A :class:`Topology` knows, for physical node ids ``0 .. nnodes-1``:

* the hop distance between any two nodes (vectorised),
* the deterministic route (sequence of directed link ids) between two nodes,
  used by the link-level network simulator to account for contention,
* the total number of directed links.

Node ids are *physical* processor identities.  Logical MPI-style ranks are
mapped to node ids by a :class:`~repro.topology.mapping.ProcessMapping`;
cost models always compose ``mapping`` then ``topology``.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Topology"]


class Topology(abc.ABC):
    """Base class for interconnect topologies."""

    #: number of physical nodes
    nnodes: int

    @abc.abstractmethod
    def hops(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Hop distance between node ids ``src`` and ``dst`` (elementwise).

        Both arguments broadcast; the result has the broadcast shape.
        ``hops(i, i) == 0``.
        """

    @abc.abstractmethod
    def route(self, src: int, dst: int) -> list[int]:
        """Directed link ids traversed by a message from ``src`` to ``dst``.

        Deterministic (dimension-ordered on tori).  The empty list for
        ``src == dst``.  Link ids index into ``range(self.nlinks)``.
        """

    @property
    @abc.abstractmethod
    def nlinks(self) -> int:
        """Total number of directed links in the network."""

    @property
    @abc.abstractmethod
    def link_bandwidth(self) -> float:
        """Bandwidth of a single link in bytes/second."""

    @property
    @abc.abstractmethod
    def link_latency(self) -> float:
        """Per-message latency in seconds (software + wire)."""

    # ------------------------------------------------------------------
    # conveniences shared by all topologies
    # ------------------------------------------------------------------

    def batch_routes(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Routes for many ``(src, dst)`` node pairs in CSR form.

        Returns ``(links, offsets)`` where ``links`` is the concatenation
        of every pair's route (directed link ids, ``int64``) and
        ``offsets`` has ``len(src) + 1`` entries so pair ``i``'s route is
        ``links[offsets[i]:offsets[i + 1]]``.  Semantically identical to
        calling :meth:`route` per pair; concrete topologies override this
        with array arithmetic (the vector kernels' entry point) while this
        base implementation is the scalar fallback.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        routes = [self.route(int(s), int(d)) for s, d in zip(src, dst)]
        offsets = np.zeros(len(routes) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in routes], out=offsets[1:])
        if offsets[-1] == 0:
            return np.empty(0, dtype=np.int64), offsets
        links = np.fromiter(
            (l for r in routes for l in r), dtype=np.int64, count=int(offsets[-1])
        )
        return links, offsets

    def validate_node(self, node: int) -> None:
        """Raise :class:`ValueError` if ``node`` is out of range."""
        if not 0 <= node < self.nnodes:
            raise ValueError(f"node {node} out of range [0, {self.nnodes})")
