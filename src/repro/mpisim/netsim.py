"""Link-level network simulation — the reproduction's "measured" times.

Real machines measure ``MPI_Alltoallv`` wall-clock; offline we compute it by
routing every message over the physical links and accounting for sharing:

* :meth:`NetworkSimulator.bottleneck_time` — deterministic contention
  bound: every message's bytes load the links of its route
  (dimension-ordered on tori, up/down on the fat-tree); the transfer phase
  lasts as long as the most loaded link needs to drain, plus a per-message
  software-overhead phase on the busiest endpoint.  This is the default
  "measured" redistribution time used by the experiment harness (fast,
  deterministic, contention-aware).
* :meth:`NetworkSimulator.flow_time` — a progressive-filling, max-min-fair
  flow simulation: flows share links fairly, rates re-waterfill whenever a
  flow completes, and the finish time of the last flow is returned.  More
  faithful, used in tests and available for small studies.

Both account for exactly the effects the paper's diffusion strategy targets:
fewer bytes on the wire (overlap) and fewer links per byte (hop locality).

The topology decides how the wire is priced.  On tori and meshes
(:class:`~repro.topology.torus.Torus3D` and ``Mesh3D``) a route is at most
three ring intervals: per-link loads come from one prefix sum per ring
(:meth:`~repro.topology.torus.Torus3D.ring_link_loads`) and the busiest
link's contributors from interval containment
(:meth:`~repro.topology.torus.Torus3D.ring_crossings`), so no hop is
materialised.  On other topologies, and for the flow-level simulator,
routes for a whole :class:`~repro.mpisim.alltoallv.MessageSet` are
materialised as one flat link-id array plus CSR offsets
(:meth:`NetworkSimulator.routes_csr`) and reduce via ``np.bincount``.  The
original per-message loops stay beside them as ``*_reference`` methods —
test-only oracles the equivalence suite checks the shipped paths against,
bit for bit: message byte counts are integer-valued floats, so the sums
are exact in any order (see ``docs/performance.md``).

Fault hooks (:mod:`repro.faults`): a simulator carries an optional set of
*degraded links* (per-link bandwidth multipliers in ``(0, 1]``, modelling a
slow or lossy cable) and *straggler ranks* (per-rank software-overhead
multipliers ``>= 1``).  Both default to empty and cost nothing when unset;
when set they reshape the wire phase (a degraded link drains its load
proportionally slower) and the software phase (a straggler's packing /
per-message costs stretch), which is how the robustness suite simulates
link degradation and slow ranks without touching the routing logic.
"""

from __future__ import annotations

import numpy as np

from repro.mpisim.alltoallv import MessageSet
from repro.mpisim.costmodel import CostModel
from repro.obs import get_recorder
from repro.topology.mapping import ProcessMapping
from repro.topology.torus import Torus3D

__all__ = ["NetworkSimulator", "LinkLoadState"]


def _take_rows(
    links: np.ndarray, offsets: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of the CSR ``(links, offsets)``, in that order, as a
    new CSR."""
    lengths = np.diff(offsets)[rows]
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    k = np.arange(out[-1], dtype=np.int64) - np.repeat(out[:-1], lengths)
    return links[np.repeat(offsets[:-1][rows], lengths) + k], out


class NetworkSimulator:
    """Prices message sets on a mapped topology's links and times them."""

    def __init__(
        self,
        mapping: ProcessMapping,
        cost: CostModel,
        adaptive_routing: bool = False,
    ) -> None:
        self.mapping = mapping
        self.topology = mapping.topology
        self.cost = cost
        # Tori and meshes price link loads from ring intervals; any other
        # topology routes every message (routes_csr).
        self._rings = isinstance(mapping.topology, Torus3D)
        # Static adaptive routing: vary the torus dimension order per
        # endpoint pair (deterministic hash) to spread link load.  Only
        # meaningful on tori/meshes.
        self.adaptive_routing = adaptive_routing and self._rings
        # Routing is stateless: each routes_csr call routes its unique rank
        # pairs in one vectorised batch, cheaper per pair than a memo of
        # routes.  The counters keep their cache-era names for external
        # readers: a miss is a unique pair a call routed, a hit a further
        # message of such a pair -- the counts a cold cache made.  Pricing
        # from ring intervals routes nothing and counts nothing.
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        #: link id -> bandwidth multiplier in (0, 1] (1 = healthy)
        self.link_faults: dict[int, float] = {}
        #: rank -> software-overhead multiplier >= 1 (1 = healthy)
        self.rank_slowdown: dict[int, float] = {}

    # -- fault hooks ----------------------------------------------------

    def set_link_fault(self, link: int, factor: float) -> None:
        """Degrade ``link`` to ``factor`` of its bandwidth (``(0, 1]``)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"link fault factor must be in (0, 1], got {factor}")
        if not 0 <= link < self.topology.nlinks:
            raise ValueError(f"link {link} outside [0, {self.topology.nlinks})")
        if factor >= 1.0:
            self.link_faults.pop(link, None)
        else:
            self.link_faults[link] = float(factor)

    def set_rank_slowdown(self, rank: int, factor: float) -> None:
        """Multiply ``rank``'s software overhead by ``factor`` (``>= 1``)."""
        if factor < 1.0:
            raise ValueError(f"straggler factor must be >= 1, got {factor}")
        if not 0 <= rank < self.mapping.nranks:
            raise ValueError(f"rank {rank} outside [0, {self.mapping.nranks})")
        if factor <= 1.0:
            self.rank_slowdown.pop(rank, None)
        else:
            self.rank_slowdown[rank] = float(factor)

    # -- routing ---------------------------------------------------------

    def _route(self, src_rank: int, dst_rank: int) -> list[int]:
        """One rank pair's physical route, uncached (the oracles' router)."""
        table = self.mapping.table
        src, dst = int(table[src_rank]), int(table[dst_rank])
        if self.adaptive_routing:
            order = Torus3D.DIM_ORDERS[(src * 2654435761 + dst) % 6]
            return self.topology.route_ordered(src, dst, order)
        return self.topology.route(src, dst)

    def _nodes(
        self, messages: MessageSet
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Each message's physical ``(src, dst)`` nodes and, under adaptive
        routing, its hashed index into :attr:`Torus3D.DIM_ORDERS`."""
        table = self.mapping.table
        src = table[messages.src].astype(np.int64)
        dst = table[messages.dst].astype(np.int64)
        order_idx = (src * 2654435761 + dst) % 6 if self.adaptive_routing else None
        return src, dst, order_idx

    def _batch_routes(
        self, src_ranks: np.ndarray, dst_ranks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Routes of the given rank pairs as one ``(links, offsets)`` CSR,
        in input order."""
        table = self.mapping.table
        src = table[src_ranks].astype(np.int64)
        dst = table[dst_ranks].astype(np.int64)
        if not self.adaptive_routing:
            return self.topology.batch_routes(src, dst)
        # Group pairs by their hashed dimension order (six groups) so each
        # group is one vectorised batch_routes_ordered call, then put the
        # grouped routes back in input order.
        order_idx = (src * 2654435761 + dst) % 6
        sels, links, lengths = [], [], []
        for o in np.unique(order_idx):
            sel = np.flatnonzero(order_idx == o)
            glinks, goffs = self.topology.batch_routes_ordered(
                src[sel], dst[sel], Torus3D.DIM_ORDERS[int(o)]
            )
            sels.append(sel)
            links.append(glinks)
            lengths.append(np.diff(goffs))
        offsets = np.zeros(len(src) + 1, dtype=np.int64)
        np.cumsum(np.concatenate(lengths), out=offsets[1:])
        return _take_rows(
            np.concatenate(links), offsets, np.argsort(np.concatenate(sels))
        )

    def routes_csr(self, messages: MessageSet) -> tuple[np.ndarray, np.ndarray]:
        """Every message's physical route as one flat CSR structure.

        Returns ``(links, offsets)``: message ``i`` traverses directed
        links ``links[offsets[i]:offsets[i + 1]]``, in hop order.  The
        unique endpoint pairs are routed in one vectorised batch and each
        message gathers its pair's route; the ``route_cache_*`` counters
        advance by the unique pairs (misses) and the repeats (hits).  Only
        the flow-level simulator and topologies without ring intervals
        route; a torus or mesh prices link loads without calling this.
        """
        n = len(messages)
        if n == 0:
            return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        nranks = self.mapping.nranks
        keys = messages.src.astype(np.int64) * nranks + messages.dst.astype(np.int64)
        uniq, inv = np.unique(keys, return_inverse=True)
        n_pairs = len(uniq)
        self.route_cache_misses += n_pairs
        self.route_cache_hits += n - n_pairs
        rec = get_recorder()
        rec.count("netsim.route_cache_miss", float(n_pairs))
        if n > n_pairs:
            rec.count("netsim.route_cache_hit", float(n - n_pairs))
        links, offsets = self._batch_routes(uniq // nranks, uniq % nranks)
        return _take_rows(links, offsets, inv)

    def _routes_reference(self, messages: MessageSet) -> list[list[int]]:
        """Physical route (link ids) of every message, one at a time."""
        return [
            self._route(int(s), int(d))
            for s, d in zip(messages.src, messages.dst)
        ]

    # -- link loads -------------------------------------------------------

    def _link_load_arrays(
        self, messages: MessageSet
    ) -> tuple[np.ndarray, np.ndarray]:
        """Loaded links and their byte totals as sorted parallel arrays."""
        if len(messages) == 0:  # nothing on the wire
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        if self._rings:
            src, dst, order_idx = self._nodes(messages)
            return self.topology.ring_link_loads(src, dst, messages.nbytes, order_idx)
        links, offsets = self.routes_csr(messages)
        weights = np.repeat(
            messages.nbytes.astype(np.float64), np.diff(offsets)
        )
        uniq, inv = np.unique(links, return_inverse=True)
        return uniq, np.bincount(inv, weights=weights, minlength=len(uniq))

    def _link_loads_reference(self, messages: MessageSet) -> dict[int, float]:
        loads: dict[int, float] = {}
        for route, nbytes in zip(self._routes_reference(messages), messages.nbytes):
            for link in route:
                loads[link] = loads.get(link, 0.0) + float(nbytes)
        return loads

    def link_loads(self, messages: MessageSet) -> dict[int, float]:
        """Total bytes crossing each directed link (only loaded links)."""
        links, loads = self._link_load_arrays(messages)
        return dict(zip(links.tolist(), loads.tolist()))

    def busiest_link_contributions(
        self, messages: MessageSet
    ) -> tuple[int, float, dict[tuple[int, int], float]]:
        """The most loaded link and which rank pairs load it.

        Returns ``(link_id, link_load_bytes, {(src, dst): bytes})`` where
        the dict holds every message routed *through* that link keyed by
        its endpoint ranks — the per-pair breakdown a
        :class:`~repro.mpisim.ledger.CommLedger` accumulates to show who
        is responsible for the wire-phase bottleneck.  Returns
        ``(-1, 0.0, {})`` for an empty message set.
        """
        links, loads = self._link_load_arrays(messages)
        if links.size == 0:
            return -1, 0.0, {}
        # Ties break toward the smallest link id: links is sorted ascending
        # and argmax returns the first maximum.
        bi = int(np.argmax(loads))
        busiest = int(links[bi])
        return busiest, float(loads[bi]), self._pair_bytes_through(messages, busiest)

    def _pair_bytes_through(
        self, messages: MessageSet, link: int
    ) -> dict[tuple[int, int], float]:
        """Per ``(src, dst)`` rank pair, the bytes of ``messages`` whose
        route crosses ``link``: by interval containment on tori and meshes,
        else by routing every message."""
        if self._rings:
            src, dst, order_idx = self._nodes(messages)
            touching = np.flatnonzero(
                self.topology.ring_crossings(src, dst, link, order_idx)
            )
        else:
            links, offsets = self.routes_csr(messages)
            msg_of = np.repeat(
                np.arange(len(messages), dtype=np.int64), np.diff(offsets)
            )
            touching = np.unique(msg_of[links == link])
        nranks = self.mapping.nranks
        pair_keys = (
            messages.src[touching].astype(np.int64) * nranks
            + messages.dst[touching].astype(np.int64)
        )
        uniq_pairs, pair_inv = np.unique(pair_keys, return_inverse=True)
        pair_bytes = np.bincount(
            pair_inv,
            weights=messages.nbytes.astype(np.float64)[touching],
            minlength=len(uniq_pairs),
        )
        return {
            (int(key // nranks), int(key % nranks)): float(b)
            for key, b in zip(uniq_pairs.tolist(), pair_bytes.tolist())
        }

    def _busiest_link_contributions_reference(
        self, messages: MessageSet
    ) -> tuple[int, float, dict[tuple[int, int], float]]:
        routes = self._routes_reference(messages)
        loads: dict[int, float] = {}
        for route, nbytes in zip(routes, messages.nbytes):
            for link in route:
                loads[link] = loads.get(link, 0.0) + float(nbytes)
        if not loads:
            return -1, 0.0, {}
        busiest = max(loads, key=lambda link: (loads[link], -link))
        contributions: dict[tuple[int, int], float] = {}
        for route, s, d, nbytes in zip(
            routes, messages.src, messages.dst, messages.nbytes
        ):
            if busiest in route:
                pair = (int(s), int(d))
                contributions[pair] = contributions.get(pair, 0.0) + float(nbytes)
        return busiest, loads[busiest], contributions

    def _endpoint_overhead_reference(
        self, messages: MessageSet, include_floor: bool = True
    ) -> float:
        """Dense oracle of the software phase: one slot per rank of the
        whole machine."""
        out_msgs = np.zeros(self.mapping.nranks, dtype=np.int64)
        in_msgs = np.zeros(self.mapping.nranks, dtype=np.int64)
        np.add.at(out_msgs, messages.src, 1)
        np.add.at(in_msgs, messages.dst, 1)
        out_bytes = np.zeros(self.mapping.nranks, dtype=np.float64)
        in_bytes = np.zeros(self.mapping.nranks, dtype=np.float64)
        np.add.at(out_bytes, messages.src, messages.nbytes)
        np.add.at(in_bytes, messages.dst, messages.nbytes)
        floor = (
            self.cost.collective_floor(self.mapping.nranks) if include_floor else 0.0
        )
        if self.rank_slowdown:
            # Stragglers stretch their own packing phase, so the busiest
            # endpoint is found on the per-rank (slowdown-scaled) costs
            # rather than on the message/byte maxima independently.
            per_rank = (
                self.cost.alpha * np.maximum(out_msgs, in_msgs)
                + self.cost.soft_beta * np.maximum(out_bytes, in_bytes)
            )
            for rank, factor in self.rank_slowdown.items():
                per_rank[rank] *= factor
            return float(per_rank.max()) + floor
        worst_msgs = int(np.maximum(out_msgs, in_msgs).max())
        worst_bytes = float(np.maximum(out_bytes, in_bytes).max())
        return self.cost.alpha * worst_msgs + self.cost.soft_beta * worst_bytes + floor

    def _endpoint_overhead_vector(
        self, messages: MessageSet, include_floor: bool = True
    ) -> float:
        """Software phase: busiest endpoint's packing + per-message latency,
        plus the full-communicator collective floor.

        Send-side packing and receive-side unpacking overlap (independent
        DMA directions), so an endpoint pays for the *larger* of its
        outgoing and incoming volumes, not their sum.

        Only the ranks the messages touch are accounted.  Untouched ranks
        contribute exactly zero to every maximum (counts and byte sums are
        non-negative, the slowdown factors only scale values that are
        already zero there), so compacting to the touched ranks is
        bit-identical to the dense oracle — the per-rank sums accumulate
        the same integer-valued float64 terms.
        """
        n = len(messages)
        if n == 0:  # matches the dense oracle's all-zero maxima
            return (
                self.cost.collective_floor(self.mapping.nranks)
                if include_floor
                else 0.0
            )
        ranks = np.concatenate((messages.src, messages.dst)).astype(np.int64)
        uniq, inv = np.unique(ranks, return_inverse=True)
        out_inv, in_inv = inv[:n], inv[n:]
        k = len(uniq)
        out_msgs = np.bincount(out_inv, minlength=k)
        in_msgs = np.bincount(in_inv, minlength=k)
        out_bytes = np.bincount(out_inv, weights=messages.nbytes, minlength=k)
        in_bytes = np.bincount(in_inv, weights=messages.nbytes, minlength=k)
        floor = (
            self.cost.collective_floor(self.mapping.nranks) if include_floor else 0.0
        )
        if self.rank_slowdown:
            per_rank = (
                self.cost.alpha * np.maximum(out_msgs, in_msgs)
                + self.cost.soft_beta * np.maximum(out_bytes, in_bytes)
            )
            for rank, factor in self.rank_slowdown.items():
                idx = int(np.searchsorted(uniq, rank))
                if idx < k and uniq[idx] == rank:
                    per_rank[idx] *= factor
            return float(per_rank.max()) + floor
        worst_msgs = int(np.maximum(out_msgs, in_msgs).max())
        worst_bytes = float(np.maximum(out_bytes, in_bytes).max())
        return self.cost.alpha * worst_msgs + self.cost.soft_beta * worst_bytes + floor

    def bottleneck_time(
        self,
        messages: MessageSet,
        include_floor: bool = True,
        link_arrays: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> float:
        """Contention-aware lower-bound completion time (the default
        "measured" value).

        Wire phase: the most loaded link drains its ``max_link_load · β``
        bytes.  Software phase: the busiest endpoint packs/unpacks its
        bytes (``soft_β``), pays ``α`` per message, and every rank walks the
        full communicator's count arrays (``soft_α · P``).

        ``link_arrays``, ``messages``' loads on this simulator's links as
        :meth:`LinkLoadState.update` returns them, spares routing them again.
        """
        if len(messages) == 0:
            return 0.0
        with get_recorder().span("netsim.bottleneck", n_messages=len(messages)):
            links_arr, loads_arr = link_arrays or self._link_load_arrays(messages)
            wire = 0.0
            if loads_arr.size:
                if self.link_faults:
                    drain_arr = loads_arr.copy()
                    # Sorted loaded-link ids let each fault resolve by
                    # binary search; the fault set is small.
                    for link, factor in self.link_faults.items():
                        idx = int(np.searchsorted(links_arr, link))
                        if idx < links_arr.size and links_arr[idx] == link:
                            drain_arr[idx] /= factor
                    wire = float(drain_arr.max()) * self.cost.beta
                else:
                    wire = float(loads_arr.max()) * self.cost.beta
            return wire + self._endpoint_overhead_vector(messages, include_floor)

    def _bottleneck_time_reference(
        self, messages: MessageSet, include_floor: bool = True
    ) -> float:
        """Scalar oracle of :meth:`bottleneck_time` (per-message loops)."""
        if len(messages) == 0:
            return 0.0
        loads = self._link_loads_reference(messages)
        wire = 0.0
        if loads:
            if self.link_faults:
                # a degraded link drains its bytes at factor x bandwidth
                drain = max(
                    load / self.link_faults.get(link, 1.0)
                    for link, load in loads.items()
                )
            else:
                drain = max(loads.values())
            wire = drain * self.cost.beta
        return wire + self._endpoint_overhead_reference(messages, include_floor)

    # ------------------------------------------------------------------

    def flow_time(self, messages: MessageSet, max_epochs: int | None = None) -> float:
        """Max-min-fair flow simulation of the full message set.

        Progressive filling: in each epoch flow rates are the max-min fair
        allocation over shared links; the earliest-finishing flow ends the
        epoch and rates re-waterfill.  Returns wall-clock seconds including
        the α software phase of the busiest endpoint.
        """
        nflows = len(messages)
        if nflows == 0:
            return 0.0
        with get_recorder().span("netsim.flow", n_messages=nflows):
            incidence = self._flow_incidence_vector(messages)
            wire = self._drain_time(messages, incidence, max_epochs)
            return wire + self._endpoint_overhead_vector(messages)

    def _flow_time_reference(
        self, messages: MessageSet, max_epochs: int | None = None
    ) -> float:
        """Scalar oracle of :meth:`flow_time` (per-message route walks)."""
        if len(messages) == 0:
            return 0.0
        incidence = self._flow_incidence_reference(messages)
        wire = self._drain_time(messages, incidence, max_epochs)
        return wire + self._endpoint_overhead_reference(messages)

    def _flow_incidence_vector(
        self, messages: MessageSet
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Compacted (flow, link) incidence of the message set.

        Returns ``(nlinks, link_ids, finc, linc, active)`` with link ids
        sorted ascending and incidences in message-major hop order — the
        oracle twin produces bitwise-identical arrays, so the waterfill
        results agree exactly.
        """
        links, offsets = self.routes_csr(messages)
        hop_counts = np.diff(offsets)
        finc = np.repeat(np.arange(len(messages), dtype=np.int64), hop_counts)
        link_ids, linc = np.unique(links, return_inverse=True)
        return len(link_ids), link_ids, finc, linc.astype(np.int64), hop_counts > 0

    def _flow_incidence_reference(
        self, messages: MessageSet
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Scalar oracle of :meth:`_flow_incidence_vector`."""
        routes = self._routes_reference(messages)
        link_ids_list = sorted({l for r in routes for l in r})
        link_index = {l: i for i, l in enumerate(link_ids_list)}
        finc = np.fromiter(
            (fi for fi, r in enumerate(routes) for _ in r), dtype=np.int64
        )
        linc = np.fromiter(
            (link_index[l] for r in routes for l in r), dtype=np.int64
        )
        # Zero-hop messages (same physical node) complete immediately.
        active = np.array([len(r) > 0 for r in routes])
        return (
            len(link_ids_list),
            np.asarray(link_ids_list, dtype=np.int64),
            finc,
            linc,
            active,
        )

    def _drain_time(
        self,
        messages: MessageSet,
        incidence: tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        max_epochs: int | None,
    ) -> float:
        """Progressive-filling wire phase over a precomputed incidence."""
        nflows = len(messages)
        nlinks, link_ids, finc, linc, active = incidence
        remaining = messages.nbytes.astype(np.float64).copy()
        active = active.copy()
        remaining[~active] = 0.0
        bw = np.full(nlinks, self.topology.link_bandwidth, dtype=np.float64)
        if self.link_faults:
            link_index = {int(l): i for i, l in enumerate(link_ids)}
            for link, factor in self.link_faults.items():
                idx = link_index.get(link)
                if idx is not None:
                    bw[idx] *= factor
        t = 0.0
        epochs = 0
        limit = max_epochs if max_epochs is not None else 2 * nflows + 8
        while active.any():
            epochs += 1
            if epochs > limit:
                raise RuntimeError(
                    f"flow simulation did not converge in {limit} epochs"
                )
            rates = self._waterfill(nflows, nlinks, finc, linc, active, bw)
            with np.errstate(divide="ignore", invalid="ignore"):
                finish = np.where(active, remaining / rates, np.inf)
            dt = float(finish.min())
            t += dt
            remaining = np.maximum(remaining - rates * dt, 0.0)
            active &= remaining > 1e-9
        return t

    @staticmethod
    def _waterfill(
        nflows: int,
        nlinks: int,
        finc: np.ndarray,
        linc: np.ndarray,
        active: np.ndarray,
        bw: np.ndarray | float,
    ) -> np.ndarray:
        """Max-min fair rates for the active flows (bytes/second).

        ``bw`` is the per-link capacity — an array with one entry per link
        (degraded links carry reduced entries; see :meth:`set_link_fault`)
        or a scalar applied uniformly.
        """
        rates = np.zeros(nflows, dtype=np.float64)
        frozen = ~active.copy()
        bw = np.broadcast_to(np.asarray(bw, dtype=np.float64), (nlinks,))
        residual = bw.copy()
        # Only incidences of active flows participate.
        inc_mask = active[finc]
        while True:
            live = inc_mask & ~frozen[finc]
            if not live.any():
                break
            nshare = np.zeros(nlinks, dtype=np.float64)
            np.add.at(nshare, linc[live], 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                fair = np.where(nshare > 0, residual / np.maximum(nshare, 1), np.inf)
            bottleneck = float(fair.min())
            # Freeze every unfrozen flow crossing a bottleneck link.
            tight_links = fair <= bottleneck * (1 + 1e-12)
            hit = live & tight_links[linc]
            to_freeze = np.unique(finc[hit])
            if to_freeze.size == 0:  # numerical safety
                to_freeze = np.unique(finc[live])
                bottleneck = float(fair[np.isfinite(fair)].min())
            rates[to_freeze] = bottleneck
            frozen[to_freeze] = True
            # Remove frozen flows' consumption from their links.
            gone = inc_mask & frozen[finc] & (rates[finc] > 0)
            consumed = np.zeros(nlinks, dtype=np.float64)
            np.add.at(consumed, linc[gone], rates[finc[gone]])
            residual = np.maximum(bw - consumed, 0.0)
        return rates


class LinkLoadState:
    """Live per-link load state maintained by message-set *deltas*.

    This class keeps one dense ``loads`` array (float64, one slot per
    directed link — ~3 MB at 64k ranks) plus the per-key contribution
    (*charge*) that produced it, and applies each adaptation as a delta:
    :meth:`retire` subtracts a departed key's charge, :meth:`update` swaps
    a changed key's old charge for its new one.  A charge is
    :meth:`NetworkSimulator._link_load_arrays` of the key's messages —
    on a torus or mesh priced from ring intervals, elsewhere routed — so
    no plan rebuilds the whole machine's link loads.

    Exactness: message byte counts are integer-valued float64, so every
    per-link total is an exact integer and add/subtract round-trips to
    exactly zero — the incremental ``loads`` is *bit-identical* to a
    from-scratch rebuild, which :meth:`rebuild` provides as the shipped
    check (the sanitizer compares the two after every plan, and checks
    that each charge sums to its messages' hop-bytes).

    Keys are nest ids; the state after an adaptation step holds exactly
    the retained nests' redistribution message sets, so
    :meth:`busiest_link_contributions` returns the same
    ``(link, load, {pair: bytes})`` triple as
    :meth:`NetworkSimulator.busiest_link_contributions` over the
    concatenation of all active sets — without ever materialising the
    concatenation.
    """

    def __init__(self, simulator: NetworkSimulator) -> None:
        self.simulator = simulator
        self.loads = np.zeros(simulator.topology.nlinks, dtype=np.float64)
        self._links: dict[int, np.ndarray] = {}  # key -> sorted loaded link ids
        self._vals: dict[int, np.ndarray] = {}  # key -> per-link byte totals
        self._messages: dict[int, MessageSet] = {}

    # -- bookkeeping -----------------------------------------------------

    @property
    def active_keys(self) -> list[int]:
        """The tracked keys (nest ids), sorted."""
        return sorted(self._messages)

    def messages_for(self, key: int) -> MessageSet:
        """The message set currently charged under ``key``."""
        return self._messages[key]

    def charge_for(self, key: int) -> tuple[np.ndarray, np.ndarray]:
        """``key``'s charge: its sorted loaded links and their byte totals."""
        return self._links[key], self._vals[key]

    def clear(self) -> None:
        """Drop every contribution (back to an idle wire)."""
        self.loads.fill(0.0)
        self._links.clear()
        self._vals.clear()
        self._messages.clear()

    def update(self, key: int, messages: MessageSet) -> tuple[np.ndarray, np.ndarray]:
        """Charge ``key`` with ``messages``, replacing any prior charge;
        returns the charge (sorted loaded links, their byte totals)."""
        self.retire(key)
        links, vals = self.simulator._link_load_arrays(messages)
        self._links[key] = links
        self._vals[key] = vals
        self._messages[key] = messages
        self.loads[links] += vals
        return links, vals

    def retire(self, key: int) -> None:
        """Remove ``key``'s contribution; a no-op for unknown keys."""
        links = self._links.pop(key, None)
        if links is None:
            return
        self.loads[links] -= self._vals.pop(key)
        del self._messages[key]

    # -- queries ---------------------------------------------------------

    def rebuild(self) -> np.ndarray:
        """From-scratch recomputation of :attr:`loads` (the rebuild twin).

        Prices every active message set again and sums.  The incremental
        array must equal this bit-for-bit; the sanitizer checks it does.
        """
        loads = np.zeros_like(self.loads)
        for key in sorted(self._messages):
            links, vals = self.simulator._link_load_arrays(self._messages[key])
            loads[links] += vals
        return loads

    def _rebuild_reference(self) -> np.ndarray:
        """Scalar oracle of :meth:`rebuild` (per-message route walks)."""
        loads = np.zeros_like(self.loads)
        for key in sorted(self._messages):
            ref = self.simulator._link_loads_reference(self._messages[key])
            for link, nbytes in ref.items():
                loads[link] += nbytes
        return loads

    def busiest_link_contributions(
        self,
    ) -> tuple[int, float, dict[tuple[int, int], float]]:
        """The most loaded link across every active key, and who loads it.

        Same contract as
        :meth:`NetworkSimulator.busiest_link_contributions` over the
        concatenation of all active message sets — ``(-1, 0.0, {})``
        when nothing is on the wire, ties toward the smallest link id —
        but the scan is O(links) on the live array and only the keys
        whose charge holds the busiest link are revisited.
        """
        if not self._messages:
            return -1, 0.0, {}
        busiest = int(np.argmax(self.loads))
        load = float(self.loads[busiest])
        if load <= 0.0:
            return -1, 0.0, {}
        return busiest, load, self._busiest_contributions_vector(busiest)

    def _busiest_contributions_reference(
        self, busiest: int
    ) -> dict[tuple[int, int], float]:
        """Per-pair bytes through ``busiest``, by walking every route."""
        contributions: dict[tuple[int, int], float] = {}
        if busiest < 0:
            return contributions
        for key in sorted(self._messages):
            messages = self._messages[key]
            routes = self.simulator._routes_reference(messages)
            for route, s, d, nbytes in zip(
                routes, messages.src, messages.dst, messages.nbytes
            ):
                if busiest in route:
                    pair = (int(s), int(d))
                    contributions[pair] = contributions.get(pair, 0.0) + float(nbytes)
        return contributions

    def _busiest_contributions_vector(
        self, busiest: int
    ) -> dict[tuple[int, int], float]:
        """Per-pair bytes through ``busiest``, revisiting only the keys
        whose sorted link arrays contain it (membership by bisection);
        within a key, :meth:`NetworkSimulator._pair_bytes_through` finds
        the messages that cross it."""
        contributions: dict[tuple[int, int], float] = {}
        if busiest < 0:
            return contributions
        for key in sorted(self._messages):
            slinks = self._links[key]
            idx = int(np.searchsorted(slinks, busiest))
            if idx >= slinks.size or int(slinks[idx]) != busiest:
                continue
            through = self.simulator._pair_bytes_through(self._messages[key], busiest)
            for pair, nbytes in through.items():
                contributions[pair] = contributions.get(pair, 0.0) + nbytes
        return contributions
