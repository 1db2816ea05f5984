"""Link-level network simulation — the reproduction's "measured" times.

Real machines measure ``MPI_Alltoallv`` wall-clock; offline we compute it by
routing every message over the physical links and accounting for sharing:

* :meth:`NetworkSimulator.bottleneck_time` — deterministic contention
  bound: every message is routed (dimension-ordered on tori, up/down on the
  fat-tree); the transfer phase lasts as long as the most loaded link needs
  to drain, plus a per-message software-overhead phase on the busiest
  endpoint.  This is the default "measured" redistribution time used by the
  experiment harness (fast, deterministic, contention-aware).
* :meth:`NetworkSimulator.flow_time` — a progressive-filling, max-min-fair
  flow simulation: flows share links fairly, rates re-waterfill whenever a
  flow completes, and the finish time of the last flow is returned.  More
  faithful, used in tests and available for small studies.

Both account for exactly the effects the paper's diffusion strategy targets:
fewer bytes on the wire (overlap) and fewer links per byte (hop locality).

Routes for a whole :class:`~repro.mpisim.alltoallv.MessageSet` are
materialised as one flat link-id array plus CSR offsets
(:meth:`NetworkSimulator.routes_csr`) and link loads / busiest-link
contributions reduce via ``np.bincount``.  The original per-message loops
stay beside them as ``*_reference`` methods — test-only oracles the
equivalence suite checks the shipped path against, bit for bit: message
byte counts are integer-valued floats, so the sums are exact in any order
(see ``docs/performance.md``).

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

__all__ = ["NetworkSimulator", "LinkLoadState", "default_route_cache_size"]

#: placeholder slice while assembling mixed warm/cold route batches
_EMPTY_ROUTE = np.empty(0, dtype=np.int64)


def default_route_cache_size(nranks: int) -> int:
    """Route-cache capacity derived from the machine size.

    The historical fixed ``1 << 16`` was tuned for <= 1024-rank presets;
    at 16k-64k ranks a single adaptation touches more distinct pairs than
    that, so the FIFO thrashes and every step re-routes from scratch.
    Scale with the rank count (a rank's redistribution partners are a
    bounded neighbourhood, ~4 pairs/rank covers the observed working
    sets) but cap the growth so the cache itself stays bounded in memory.
    """
    if nranks <= 0:
        raise ValueError(f"nranks must be positive, got {nranks}")
    return min(max(1 << 16, 4 * nranks), 1 << 20)


class NetworkSimulator:
    """Routes message sets over a mapped topology and times them."""

    #: the six dimension orders static adaptive routing cycles through
    _DIM_ORDERS = (
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    )

    def __init__(
        self,
        mapping: ProcessMapping,
        cost: CostModel,
        route_cache_size: int | None = None,
        adaptive_routing: bool = False,
    ) -> None:
        self.mapping = mapping
        self.topology = mapping.topology
        self.cost = cost
        if route_cache_size is None:
            route_cache_size = default_route_cache_size(mapping.nranks)
        # Static adaptive routing: vary the torus dimension order per
        # endpoint pair (deterministic hash) to spread link load.  Only
        # meaningful on topologies exposing route_ordered (tori/meshes).
        self.adaptive_routing = adaptive_routing and hasattr(
            mapping.topology, "route_ordered"
        )
        # Deterministic routes recur constantly across an experiment (the
        # same rank pairs exchange at every adaptation point), so memoise
        # them as int64 arrays.  The cache evicts FIFO one entry at a time
        # when full (dicts preserve insertion order, so the first key is
        # the oldest), keeping the hit rate high instead of flushing
        # wholesale.
        self._route_cache: dict[tuple[int, int], np.ndarray] = {}
        self._route_cache_size = route_cache_size
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

    def clear_faults(self) -> None:
        """Restore every link and rank to full health."""
        self.link_faults.clear()
        self.rank_slowdown.clear()

    # -- routing ---------------------------------------------------------

    def _route(self, src_rank: int, dst_rank: int) -> list[int]:
        """One rank pair's physical route, uncached (the oracles' router)."""
        table = self.mapping.table
        src, dst = int(table[src_rank]), int(table[dst_rank])
        if self.adaptive_routing:
            order = self._DIM_ORDERS[(src * 2654435761 + dst) % 6]
            return self.topology.route_ordered(src, dst, order)
        return self.topology.route(src, dst)

    def clear_route_cache(self) -> None:
        """Drop every memoised route and reset the hit/miss counters
        (cold-cache benchmarking)."""
        self._route_cache.clear()
        self.route_cache_hits = 0
        self.route_cache_misses = 0

    def _batch_missing_routes(
        self, src_ranks: np.ndarray, dst_ranks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compute, cache and return routes for uncached rank pairs.

        Returns the ``(links, offsets)`` CSR over the input pairs, in
        input order; each pair's slice also lands in the route cache
        (views into the flat array — no copies).
        """
        table = self.mapping.table
        src = table[src_ranks].astype(np.int64)
        dst = table[dst_ranks].astype(np.int64)
        if self.adaptive_routing:
            # Group pairs by their hashed dimension order (six groups) so
            # each group is one vectorised batch_routes_ordered call.
            order_idx = (src * 2654435761 + dst) % 6
            chunks: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(src)
            for o in np.unique(order_idx):
                sel = np.flatnonzero(order_idx == o)
                l, off = self.topology.batch_routes_ordered(
                    src[sel], dst[sel], self._DIM_ORDERS[int(o)]
                )
                for j, pos in enumerate(sel):
                    chunks[int(pos)] = l[off[j] : off[j + 1]]
            lengths = np.fromiter(
                (c.shape[0] for c in chunks), dtype=np.int64, count=len(chunks)
            )
            offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            links = (
                np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            )
        else:
            links, offsets = self.topology.batch_routes(src, dst)
        cache = self._route_cache
        cache.update(
            ((int(s), int(d)), links[offsets[i] : offsets[i + 1]])
            for i, (s, d) in enumerate(zip(src_ranks, dst_ranks))
        )
        while len(cache) > self._route_cache_size:  # FIFO overflow eviction
            cache.pop(next(iter(cache)))
        return links, offsets

    def routes_csr(self, messages: MessageSet) -> tuple[np.ndarray, np.ndarray]:
        """Every message's physical route as one flat CSR structure.

        Returns ``(links, offsets)``: message ``i`` traverses directed
        links ``links[offsets[i]:offsets[i + 1]]``, in hop order.  Uncached
        endpoint pairs are routed in one vectorised batch; cache hit/miss
        counters advance as a per-message cache walk would (first sighting
        of a pair is a miss, repeats are hits).
        """
        n = len(messages)
        offsets = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            return np.empty(0, dtype=np.int64), offsets
        nranks = self.mapping.nranks
        keys = messages.src.astype(np.int64) * nranks + messages.dst.astype(np.int64)
        uniq, inv = np.unique(keys, return_inverse=True)
        uniq_src = uniq // nranks
        uniq_dst = uniq % nranks
        cache = self._route_cache
        if not cache:  # cold cache: everything is missing, skip the probe
            missing = np.ones(len(uniq), dtype=bool)
        else:
            missing = np.fromiter(
                (
                    (int(s), int(d)) not in cache
                    for s, d in zip(uniq_src, uniq_dst)
                ),
                dtype=bool,
                count=len(uniq),
            )
        n_missing = int(missing.sum())
        self.route_cache_misses += n_missing
        self.route_cache_hits += n - n_missing
        rec = get_recorder()
        if n_missing:
            rec.count("netsim.route_cache_miss", float(n_missing))
        if n > n_missing:
            rec.count("netsim.route_cache_hit", float(n - n_missing))
        if n_missing == len(uniq):
            # Every pair just came out of one batch call whose output is
            # already the per-pair CSR — no per-pair reassembly needed.
            flat_pairs, pair_offs = self._batch_missing_routes(uniq_src, uniq_dst)
            pair_len = np.diff(pair_offs)
            pair_off = pair_offs[:-1]
        else:
            # Hit routes are snapshotted *before* the batch call: its FIFO
            # overflow eviction may drop them (or even just-inserted missing
            # pairs, when the batch itself exceeds the cache) from the cache
            # before reassembly, so nothing below re-reads the cache.
            per_pair: list[np.ndarray] = [
                _EMPTY_ROUTE if m else cache[(int(s), int(d))]
                for m, s, d in zip(missing.tolist(), uniq_src, uniq_dst)
            ]
            if n_missing:
                mlinks, moffs = self._batch_missing_routes(
                    uniq_src[missing], uniq_dst[missing]
                )
                for j, i in enumerate(np.flatnonzero(missing).tolist()):
                    per_pair[i] = mlinks[moffs[j] : moffs[j + 1]]
            pair_len = np.fromiter(
                (r.shape[0] for r in per_pair), dtype=np.int64, count=len(per_pair)
            )
            pair_off = np.concatenate(([0], np.cumsum(pair_len)[:-1]))
            flat_pairs = np.concatenate(per_pair)
        np.cumsum(pair_len[inv], out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return np.empty(0, dtype=np.int64), offsets
        # Gather each message's route out of the unique-pair concatenation.
        msg_len = pair_len[inv]
        src_pos = np.repeat(pair_off[inv], msg_len)
        k = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], msg_len)
        return flat_pairs[src_pos + k], offsets

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
        links, offsets = self.routes_csr(messages)
        if links.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
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
        ``(-1, 0.0, {})`` for an empty message set or all-local routes.
        """
        links, offsets = self.routes_csr(messages)
        if links.size == 0:
            return -1, 0.0, {}
        nbytes = messages.nbytes.astype(np.float64)
        weights = np.repeat(nbytes, np.diff(offsets))
        uniq, inv = np.unique(links, return_inverse=True)
        loads = np.bincount(inv, weights=weights, minlength=len(uniq))
        # Ties break toward the smallest link id: uniq is sorted ascending
        # and argmax returns the first maximum.
        bi = int(np.argmax(loads))
        busiest = int(uniq[bi])
        msg_of = np.repeat(
            np.arange(len(messages), dtype=np.int64), np.diff(offsets)
        )
        touching = np.unique(msg_of[inv == bi])
        nranks = self.mapping.nranks
        pair_keys = (
            messages.src[touching].astype(np.int64) * nranks
            + messages.dst[touching].astype(np.int64)
        )
        uniq_pairs, pair_inv = np.unique(pair_keys, return_inverse=True)
        pair_bytes = np.bincount(
            pair_inv, weights=nbytes[touching], minlength=len(uniq_pairs)
        )
        contributions = {
            (int(key // nranks), int(key % nranks)): float(b)
            for key, b in zip(uniq_pairs, pair_bytes)
        }
        return busiest, float(loads[bi]), contributions

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

    def bottleneck_time(self, messages: MessageSet, include_floor: bool = True) -> float:
        """Contention-aware lower-bound completion time (the default
        "measured" value).

        Wire phase: the most loaded link drains its ``max_link_load · β``
        bytes.  Software phase: the busiest endpoint packs/unpacks its
        bytes (``soft_β``), pays ``α`` per message, and every rank walks the
        full communicator's count arrays (``soft_α · P``).
        """
        if len(messages) == 0:
            return 0.0
        with get_recorder().span("netsim.bottleneck", n_messages=len(messages)):
            links_arr, loads_arr = self._link_load_arrays(messages)
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

    At full-machine scale (``bgl-64k``: 393216 directed links) rebuilding
    the link-load picture from every nest's messages at every adaptation
    point is the dominant cost — yet between two adaptation points only
    the churned nests' message sets change.  This class keeps one dense
    ``loads`` array (float64, one slot per directed link — ~3 MB at 64k
    ranks) plus the per-key contribution that produced it, and applies
    each adaptation as a delta: :meth:`retire` subtracts a departed key's
    contribution, :meth:`update` swaps a changed key's old contribution
    for its new one.

    Exactness: message byte counts are integer-valued float64, so every
    per-link total is an exact integer and add/subtract round-trips to
    exactly zero — the incremental ``loads`` is *bit-identical* to a
    from-scratch rebuild, which :meth:`rebuild` provides as the shipped
    check (the sanitizer compares the two after every plan).

    Keys are nest ids; the state after an adaptation step holds exactly
    the retained nests' redistribution message sets, so
    :meth:`busiest_link_contributions` returns the same
    ``(link, load, {pair: bytes})`` triple as routing the concatenation
    of all active sets through
    :meth:`NetworkSimulator.busiest_link_contributions` — without ever
    materialising the concatenation.
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

    def clear(self) -> None:
        """Drop every contribution (back to an idle wire)."""
        self.loads.fill(0.0)
        self._links.clear()
        self._vals.clear()
        self._messages.clear()

    def update(self, key: int, messages: MessageSet) -> None:
        """Charge ``key`` with ``messages``, replacing any prior charge."""
        self.retire(key)
        links, vals = self.simulator._link_load_arrays(messages)
        self._links[key] = links
        self._vals[key] = vals
        self._messages[key] = messages
        self.loads[links] += vals

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

        Routes every active message set again and sums.  The incremental
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
        whose routes cross the busiest link are revisited (cache-hot).
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
        whose sorted link arrays contain it (membership by bisection)."""
        contributions: dict[tuple[int, int], float] = {}
        if busiest < 0:
            return contributions
        nranks = self.simulator.mapping.nranks
        for key in sorted(self._messages):
            slinks = self._links[key]
            idx = int(np.searchsorted(slinks, busiest))
            if idx >= slinks.size or int(slinks[idx]) != busiest:
                continue
            messages = self._messages[key]
            links, offsets = self.simulator.routes_csr(messages)
            msg_of = np.repeat(
                np.arange(len(messages), dtype=np.int64), np.diff(offsets)
            )
            touching = np.unique(msg_of[links == busiest])
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
            for pk, nbytes in zip(uniq_pairs.tolist(), pair_bytes.tolist()):
                pair = (pk // nranks, pk % nranks)
                contributions[pair] = contributions.get(pair, 0.0) + nbytes
        return contributions
