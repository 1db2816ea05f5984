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
three ring intervals, and one prefix sum over only the rings a message
set touches prices it: the contention bound reads the busiest link's load
off it (:meth:`~repro.topology.torus.Torus3D.ring_busiest_load`), the
per-link map is converted from the same sums
(:meth:`~repro.topology.torus.Torus3D.ring_link_loads`), and the busiest
link's contributors come from interval containment
(:meth:`~repro.topology.torus.Torus3D.ring_crossings`), so no hop is
materialised.  On other topologies, and for the flow-level simulator,
routes for a whole :class:`~repro.mpisim.alltoallv.MessageSet` are
materialised as one flat link-id array plus CSR offsets
(:meth:`NetworkSimulator.routes_csr`; on a torus
:meth:`~repro.topology.torus.Torus3D.batch_routes` walks the same ring
intervals hop by hop) and reduce via ``np.bincount``.  The original
per-message loops stay beside them as ``*_reference`` methods —
test-only oracles the equivalence suite checks the shipped paths against,
bit for bit: message byte counts are integer-valued floats
(:class:`~repro.mpisim.alltoallv.MessageSet` refuses others), so the
sums are exact in any order (see ``docs/performance.md``).
:class:`LinkLoadState` keeps each nest's message set as its charge; a
plan prices each nest's wire once, and the busiest-link query prices the
charges' concatenation once.

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
        self, src_ranks: np.ndarray, dst_ranks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The physical ``(src, dst)`` nodes of the given rank pairs and,
        under adaptive routing, each pair's hashed index into
        :attr:`Torus3D.DIM_ORDERS`."""
        src = self.mapping.node_of(src_ranks)
        dst = self.mapping.node_of(dst_ranks)
        order_idx = (src * 2654435761 + dst) % 6 if self.adaptive_routing else None
        return src, dst, order_idx

    def routes_csr(self, messages: MessageSet) -> tuple[np.ndarray, np.ndarray]:
        """Every message's physical route as one flat CSR structure.

        Returns ``(links, offsets)``: message ``i`` traverses directed
        links ``links[offsets[i]:offsets[i + 1]]``, in hop order.  Every
        message is routed in one vectorised batch; the ``route_cache_*``
        counters advance by the unique endpoint pairs (misses) and the
        repeats (hits).  Only the flow-level simulator and topologies
        without ring intervals route; a torus or mesh prices link loads
        without calling this.
        """
        n = len(messages)
        if n == 0:
            return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        src, dst, order_idx = self._nodes(messages.src, messages.dst)
        keys = np.sort(src * self.topology.nnodes + dst)
        n_pairs = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
        self.route_cache_misses += n_pairs
        self.route_cache_hits += n - n_pairs
        rec = get_recorder()
        rec.count("netsim.route_cache_miss", float(n_pairs))
        if n > n_pairs:
            rec.count("netsim.route_cache_hit", float(n - n_pairs))
        if order_idx is None:
            return self.topology.batch_routes(src, dst)
        return self.topology.batch_routes(src, dst, order_idx)

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
            src, dst, order_idx = self._nodes(messages.src, messages.dst)
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

    def _pair_bytes_through(
        self, messages: MessageSet, link: int
    ) -> dict[tuple[int, int], float]:
        """Per ``(src, dst)`` rank pair, the bytes of ``messages`` whose
        route crosses ``link``: by interval containment on tori and meshes,
        else by routing every message."""
        if self._rings:
            src, dst, order_idx = self._nodes(messages.src, messages.dst)
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
        """Scalar oracle of :meth:`LinkLoadState.busiest_link_contributions`
        for a state charged with ``messages`` (per-message route walks)."""
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

        Only the window of ranks from the smallest to the largest the
        messages touch is accounted, rank ``first + i`` in slot ``i``.
        Ranks outside it, and untouched ranks inside it, contribute
        exactly zero to every maximum (counts and byte sums are
        non-negative, the slowdown factors only scale values that are
        already zero there), so the window is bit-identical to the dense
        oracle — the per-rank sums accumulate the same integer-valued
        float64 terms.
        """
        n = len(messages)
        if n == 0:  # matches the dense oracle's all-zero maxima
            return (
                self.cost.collective_floor(self.mapping.nranks)
                if include_floor
                else 0.0
            )
        first = min(int(messages.src.min()), int(messages.dst.min()))
        k = max(int(messages.src.max()), int(messages.dst.max())) + 1 - first
        out_idx = messages.src - first
        in_idx = messages.dst - first
        out_msgs = np.bincount(out_idx, minlength=k)
        in_msgs = np.bincount(in_idx, minlength=k)
        out_bytes = np.bincount(out_idx, weights=messages.nbytes, minlength=k)
        in_bytes = np.bincount(in_idx, weights=messages.nbytes, minlength=k)
        floor = (
            self.cost.collective_floor(self.mapping.nranks) if include_floor else 0.0
        )
        if self.rank_slowdown:
            per_rank = (
                self.cost.alpha * np.maximum(out_msgs, in_msgs)
                + self.cost.soft_beta * np.maximum(out_bytes, in_bytes)
            )
            for rank, factor in self.rank_slowdown.items():
                if first <= rank < first + k:
                    per_rank[rank - first] *= factor
            return float(per_rank.max()) + floor
        worst_msgs = int(np.maximum(out_msgs, in_msgs).max())
        worst_bytes = float(np.maximum(out_bytes, in_bytes).max())
        return self.cost.alpha * worst_msgs + self.cost.soft_beta * worst_bytes + floor

    def busiest_link_load(self, messages: MessageSet) -> float:
        """Bytes on the most loaded directed link when ``messages`` are
        sent, 0.0 for none: on tori and meshes read straight off the
        touched rings' prefix sums, with no per-link map built; elsewhere
        the maximum of the routed loads."""
        if self._rings:
            src, dst, order_idx = self._nodes(messages.src, messages.dst)
            return self.topology.ring_busiest_load(src, dst, messages.nbytes, order_idx)
        _links, loads = self._link_load_arrays(messages)
        return float(loads.max()) if loads.size else 0.0

    def bottleneck_time(self, messages: MessageSet, include_floor: bool = True) -> float:
        """Contention-aware lower-bound completion time (the default
        "measured" value).

        Wire phase: the most loaded link drains its ``max_link_load · β``
        bytes (:meth:`busiest_link_load`; with degraded links, the largest
        of each loaded link's bytes over its bandwidth factor).  Software
        phase: the busiest endpoint packs/unpacks its bytes (``soft_β``),
        pays ``α`` per message, and every rank walks the full
        communicator's count arrays (``soft_α · P``).
        """
        if len(messages) == 0:
            return 0.0
        with get_recorder().span("netsim.bottleneck", n_messages=len(messages)):
            if not self.link_faults:
                drain = self.busiest_link_load(messages)
            else:
                links_arr, drain_arr = self._link_load_arrays(messages)
                # Sorted loaded-link ids let each fault resolve by binary
                # search; the fault set is small.
                for link, factor in self.link_faults.items():
                    idx = int(np.searchsorted(links_arr, link))
                    if idx < links_arr.size and links_arr[idx] == link:
                        drain_arr[idx] /= factor
                drain = float(drain_arr.max()) if drain_arr.size else 0.0
            wire = drain * self.cost.beta
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

    def flow_time(self, messages: MessageSet) -> float:
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
            wire = self._drain_time(messages, incidence)
            return wire + self._endpoint_overhead_vector(messages)

    def _flow_time_reference(self, messages: MessageSet) -> float:
        """Scalar oracle of :meth:`flow_time` (per-message route walks)."""
        if len(messages) == 0:
            return 0.0
        incidence = self._flow_incidence_reference(messages)
        wire = self._drain_time(messages, incidence)
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
    ) -> float:
        """Progressive-filling wire phase over a precomputed incidence.

        Each epoch finishes at least one flow, so ``2 * flows + 8`` epochs
        bound a converging fill; past that it raises ``RuntimeError``.
        """
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
        limit = 2 * nflows + 8
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
            # The flows marked by their incidences, ascending.
            to_freeze = np.flatnonzero(np.bincount(finc[hit], minlength=nflows))
            if to_freeze.size == 0:  # numerical safety
                to_freeze = np.flatnonzero(np.bincount(finc[live], minlength=nflows))
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
    """The wire of the nests in flight, kept as one *charge* per key.

    A key's charge is its message set.  :meth:`update` stores one,
    replacing the key's earlier charge, :meth:`retire` drops one and
    :meth:`clear` empties the state.  Keys are nest ids, and a plan
    charges every move it makes, so after an adaptation step the state
    holds exactly the retained nests' redistribution message sets; the
    plan prices each of them once with
    :meth:`NetworkSimulator.bottleneck_time`.

    :meth:`loads` and :meth:`busiest_link_contributions` price the
    concatenation of every charge, keys in order, in one pass.  Byte
    counts are integer-valued float64, so every per-link sum is an exact
    integer and equals any other summation of the same bytes bit for bit.
    """

    def __init__(self, simulator: NetworkSimulator) -> None:
        self.simulator = simulator
        #: key -> the messages it is charged with
        self._charges: dict[int, MessageSet] = {}

    @property
    def active_keys(self) -> list[int]:
        """The tracked keys (nest ids), sorted."""
        return sorted(self._charges)

    def charge_for(self, key: int) -> MessageSet:
        """``key``'s charge: the messages it is charged with."""
        return self._charges[key]

    def clear(self) -> None:
        """Drop every charge (back to an idle wire)."""
        self._charges.clear()

    def update(self, key: int, messages: MessageSet) -> None:
        """Charge ``key`` with ``messages``, replacing any prior charge."""
        self._charges[key] = messages

    def retire(self, key: int) -> None:
        """Drop ``key``'s charge; a no-op for unknown keys."""
        self._charges.pop(key, None)

    def _charged(self) -> MessageSet:
        """Every charge's messages, keys in order, as one set."""
        return MessageSet.concat([self._charges[key] for key in sorted(self._charges)])

    def loads(self) -> np.ndarray:
        """Bytes on each of the machine's directed links: the charges'
        concatenation priced in one pass."""
        return self._machine_loads(self._charged())

    def _machine_loads(self, messages: MessageSet) -> np.ndarray:
        links, loads = self.simulator._link_load_arrays(messages)
        return np.bincount(links, weights=loads, minlength=self.simulator.topology.nlinks)

    def busiest_link_contributions(
        self,
    ) -> tuple[int, float, dict[tuple[int, int], float]]:
        """The most loaded link across every charge, and who loads it.

        Returns ``(link_id, link_load_bytes, {(src, dst): bytes})``: the
        dict holds every message routed *through* that link keyed by its
        endpoint ranks -- the per-pair breakdown a
        :class:`~repro.mpisim.ledger.CommLedger` accumulates to show who
        is responsible for the wire-phase bottleneck.  ``(-1, 0.0, {})``
        when nothing is on the wire; ties go to the smallest link id.
        The charges are concatenated once: one per-link map of them gives
        the link, and one :meth:`NetworkSimulator._pair_bytes_through`
        over them its contributors.
        """
        messages = self._charged()
        loads = self._machine_loads(messages)
        busiest = int(np.argmax(loads))
        load = float(loads[busiest])
        if load <= 0.0:
            return -1, 0.0, {}
        return busiest, load, self.simulator._pair_bytes_through(messages, busiest)
