"""Per-rank communication ledger — who sent what to whom, and how far.

Aggregate redistribution metrics (total bytes, hop-bytes, bottleneck time)
hide *skew*: a handful of rank pairs usually carries most of the traffic,
and the busiest link's load decides the §IV-C "measured" time.  The
:class:`CommLedger` keeps the pre-aggregation view: bytes sent and
received per rank, hop-bytes attributed to the sender, bytes exchanged
per (src, dst) rank pair, and — fed by
:meth:`~repro.mpisim.netsim.NetworkSimulator.busiest_link_contributions`
— how much each pair pushed through the most loaded link.

:func:`gini` and :class:`SkewSummary` condense a per-rank series into the
numbers that matter for diagnosis: max, mean, max/mean imbalance, and the
Gini coefficient (0 = perfectly even, →1 = one rank does everything).
The ledger feeds the skew report in :mod:`repro.experiments.report` and
the ``repro obs report`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpisim.alltoallv import MessageSet
from repro.topology.mapping import ProcessMapping

__all__ = ["CommLedger", "PairByteAccumulator", "SkewSummary", "gini", "format_ledger"]


class PairByteAccumulator:
    """Sparse ``(src, dst) → bytes`` accounting: COO appends, lazy compaction.

    The previous dict-of-tuples pair table cost one Python dict entry per
    *distinct pair ever seen* and one hashed update per pair per collective
    — at 64k ranks a single adaptation can touch hundreds of thousands of
    pairs, so both the memory and the per-step time scaled with ranks², not
    with the traffic.  This accumulator is the scipy COO/CSR idiom instead:
    :meth:`add_pairs` appends raw coordinate chunks (``int64`` keys
    ``src * nranks + dst``, float64 byte counts) in O(1) per chunk, and
    reads trigger a compaction (``np.unique`` + weighted ``np.bincount``)
    amortised against the pending volume.  Everything scales with the
    *touched* pairs.

    Exactness: message byte counts are integer-valued float64, so the
    grouped bincount sums equal the old dict's incremental additions
    bit-for-bit, in any accumulation order.

    The read API is mapping-shaped (``items``/``values``/``get``/``[]``/
    ``==`` against a plain dict) so ledger consumers did not have to
    change.
    """

    def __init__(self, nranks: int, compact_threshold: int = 1024) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if compact_threshold < 1:
            raise ValueError(
                f"compact_threshold must be >= 1, got {compact_threshold}"
            )
        self.nranks = nranks
        self._compact_threshold = compact_threshold
        #: compacted state: sorted unique pair keys and their byte totals
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=np.float64)
        #: pending COO chunks not yet folded into the compacted arrays
        self._pending_keys: list[np.ndarray] = []
        self._pending_vals: list[np.ndarray] = []
        self._pending_n = 0
        self.n_compactions = 0

    # -- writes ----------------------------------------------------------

    def add_pairs(self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray) -> None:
        """Append one chunk of per-pair byte counts (parallel arrays)."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        vals = np.asarray(nbytes, dtype=np.float64)
        if not (src.shape == dst.shape == vals.shape):
            raise ValueError("src/dst/nbytes must have equal shape")
        if src.size == 0:
            return
        if src.min() < 0 or src.max() >= self.nranks:
            raise ValueError(f"src ranks outside [0, {self.nranks})")
        if dst.min() < 0 or dst.max() >= self.nranks:
            raise ValueError(f"dst ranks outside [0, {self.nranks})")
        self._pending_keys.append(src * self.nranks + dst)
        self._pending_vals.append(vals)
        self._pending_n += src.size
        # Amortise: compact when the pending volume outgrows both the floor
        # and the compacted core, so total compaction work stays linear.
        if self._pending_n > max(self._compact_threshold, self._keys.size):
            self._compact()

    def _compact(self) -> None:
        """Fold every pending chunk into the sorted compacted arrays."""
        if not self._pending_keys:
            return
        keys = np.concatenate([self._keys, *self._pending_keys])
        vals = np.concatenate([self._vals, *self._pending_vals])
        self._pending_keys.clear()
        self._pending_vals.clear()
        self._pending_n = 0
        uniq, inv = np.unique(keys, return_inverse=True)
        self._keys = uniq
        self._vals = np.bincount(inv, weights=vals, minlength=len(uniq))
        self.n_compactions += 1

    # -- reads (all compact first) ---------------------------------------

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, bytes)`` parallel arrays, sorted by (src, dst)."""
        self._compact()
        return self._keys // self.nranks, self._keys % self.nranks, self._vals

    def __len__(self) -> int:
        self._compact()
        return int(self._keys.size)

    def total(self) -> float:
        """Sum of all byte counts (exact: integer-valued terms)."""
        self._compact()
        return float(self._vals.sum())

    def get(self, pair: tuple[int, int], default: float = 0.0) -> float:
        self._compact()
        key = int(pair[0]) * self.nranks + int(pair[1])
        idx = int(np.searchsorted(self._keys, key))
        if idx < self._keys.size and int(self._keys[idx]) == key:
            return float(self._vals[idx])
        return default

    def __getitem__(self, pair: tuple[int, int]) -> float:
        sentinel = float("nan")
        value = self.get(pair, sentinel)
        if value != value:  # NaN sentinel: pair absent
            raise KeyError(pair)
        return value

    def __contains__(self, pair: object) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        self._compact()
        key = int(pair[0]) * self.nranks + int(pair[1])
        idx = int(np.searchsorted(self._keys, key))
        return idx < self._keys.size and int(self._keys[idx]) == key

    def values(self) -> np.ndarray:
        """Byte totals in (src, dst) key order."""
        self._compact()
        return self._vals

    def items(self) -> list[tuple[tuple[int, int], float]]:
        src, dst, vals = self.arrays()
        return list(zip(zip(src.tolist(), dst.tolist()), vals.tolist()))

    def to_dict(self) -> dict[tuple[int, int], float]:
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairByteAccumulator):
            return self.to_dict() == other.to_dict()
        if isinstance(other, dict):
            return self.to_dict() == other
        return NotImplemented

    def top(self, n: int) -> list[tuple[tuple[int, int], float]]:
        """The ``n`` heaviest pairs, bytes descending, ties toward the
        lexicographically smallest pair (key order == tuple order)."""
        self._compact()
        if n <= 0 or self._keys.size == 0:
            return []
        order = np.lexsort((self._keys, -self._vals))[:n]
        return [
            ((int(k) // self.nranks, int(k) % self.nranks), float(v))
            for k, v in zip(self._keys[order], self._vals[order])
        ]


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a nonnegative series (0 even … →1 concentrated).

    Computed over *all* entries including zeros — an idle rank is exactly
    the imbalance this measures.  Returns 0.0 for empty or all-zero input.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    if x.size == 0:
        return 0.0
    if bool((x < 0).any()):
        raise ValueError("gini requires nonnegative values")
    total = float(x.sum())
    if total <= 0.0:
        return 0.0
    n = x.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(2.0 * np.sum(ranks * x) / (n * total) - (n + 1) / n)


@dataclass(frozen=True)
class SkewSummary:
    """Distribution shape of one per-rank series (bytes)."""

    label: str
    total: float
    max: float
    mean: float
    nonzero_ranks: int
    nranks: int
    gini: float

    @property
    def max_over_mean(self) -> float:
        """Imbalance factor (1.0 = perfectly even; 0 when nothing moved)."""
        return self.max / self.mean if self.mean > 0 else 0.0

    def to_dict(self) -> dict[str, float | int | str]:
        return {
            "label": self.label,
            "total": self.total,
            "max": self.max,
            "mean": self.mean,
            "max_over_mean": self.max_over_mean,
            "nonzero_ranks": self.nonzero_ranks,
            "nranks": self.nranks,
            "gini": self.gini,
        }


def _summarise(label: str, values: np.ndarray) -> SkewSummary:
    return SkewSummary(
        label=label,
        total=float(values.sum()),
        max=float(values.max()) if values.size else 0.0,
        mean=float(values.mean()) if values.size else 0.0,
        nonzero_ranks=int(np.count_nonzero(values)),
        nranks=int(values.size),
        gini=gini(values),
    )


class CommLedger:
    """Accumulates per-rank traffic across redistributions.

    Feed it every :class:`~repro.mpisim.alltoallv.MessageSet` that goes
    over the wire (:meth:`add_messages`), and the busiest-link breakdown
    from the simulator (:meth:`add_busiest_link`); read back per-rank
    arrays, per-pair byte totals, and :class:`SkewSummary` digests.
    """

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.sent = np.zeros(nranks, dtype=np.float64)
        self.received = np.zeros(nranks, dtype=np.float64)
        #: hop-bytes attributed to the sending rank (Σ hops·bytes per src)
        self.hop_bytes = np.zeros(nranks, dtype=np.float64)
        #: bytes re-sent after a timed-out round, attributed to the sender
        #: (a subset of :attr:`sent` — retries are also counted there)
        self.retried = np.zeros(nranks, dtype=np.float64)
        #: bytes exchanged per (src, dst) rank pair (sparse, COO-compacted)
        self.pair_bytes = PairByteAccumulator(nranks)
        #: bytes each pair pushed through the busiest link, per observation
        self.busiest_pair_bytes = PairByteAccumulator(nranks)
        #: summed load of the busiest link across observations
        self.busiest_link_load = 0.0
        self.n_messages = 0
        self.n_collectives = 0
        self.n_retries = 0

    def add_messages(
        self, messages: MessageSet, mapping: ProcessMapping | None = None
    ) -> None:
        """Account one collective's messages (hop-bytes need ``mapping``)."""
        self.n_collectives += 1
        n = len(messages)
        if n == 0:
            return
        self.n_messages += n
        np.add.at(self.sent, messages.src, messages.nbytes)
        np.add.at(self.received, messages.dst, messages.nbytes)
        if mapping is not None:
            hops = mapping.rank_hops(messages.src, messages.dst).astype(np.float64)
            np.add.at(self.hop_bytes, messages.src, hops * messages.nbytes)
        # Raw COO append; the accumulator compacts lazily, so per-collective
        # cost is O(messages) with no per-pair Python work at all.
        self.pair_bytes.add_pairs(messages.src, messages.dst, messages.nbytes)

    def add_retry(self, messages: MessageSet) -> None:
        """Attribute one retried round's bytes to the sending ranks.

        Call *in addition to* :meth:`add_messages` for the retry attempt:
        ``sent``/``received`` then reflect total wire traffic while
        :attr:`retried` isolates the share caused by recovery, so the skew
        report can show who paid for the self-healing.
        """
        self.n_retries += 1
        if len(messages) == 0:
            return
        np.add.at(self.retried, messages.src, messages.nbytes)

    def add_busiest_link(
        self, link_load: float, contributions: dict[tuple[int, int], float]
    ) -> None:
        """Account one collective's busiest-link breakdown (from
        :meth:`~repro.mpisim.netsim.NetworkSimulator.busiest_link_contributions`).
        """
        self.busiest_link_load += float(link_load)
        if contributions:
            n = len(contributions)
            src = np.fromiter((p[0] for p in contributions), dtype=np.int64, count=n)
            dst = np.fromiter((p[1] for p in contributions), dtype=np.int64, count=n)
            vals = np.fromiter(contributions.values(), dtype=np.float64, count=n)
            self.busiest_pair_bytes.add_pairs(src, dst, vals)

    # -- digests --------------------------------------------------------

    def skew(self, which: str = "sent") -> SkewSummary:
        """Skew digest of one per-rank series: sent, received, hop_bytes."""
        series = {
            "sent": self.sent,
            "received": self.received,
            "hop_bytes": self.hop_bytes,
            "retried": self.retried,
        }
        if which not in series:
            raise ValueError(f"unknown series {which!r}; known: {sorted(series)}")
        return _summarise(which, series[which])

    def top_pairs(self, n: int = 10) -> list[tuple[tuple[int, int], float]]:
        """The ``n`` heaviest rank pairs by total bytes, descending."""
        return self.pair_bytes.top(n)

    def busiest_link_shares(self, n: int = 10) -> list[tuple[tuple[int, int], float]]:
        """Rank pairs' shares of the accumulated busiest-link load.

        Shares are fractions of :attr:`busiest_link_load`; they sum to at
        most 1 (a pair routed off the busiest link contributes nothing).
        """
        if self.busiest_link_load <= 0.0:
            return []
        return [
            (pair, b / self.busiest_link_load)
            for pair, b in self.busiest_pair_bytes.top(n)
        ]

    def to_dict(self) -> dict[str, object]:
        """JSON-ready digest (summaries + top pairs, not the raw arrays)."""
        return {
            "nranks": self.nranks,
            "n_messages": self.n_messages,
            "n_collectives": self.n_collectives,
            "n_retries": self.n_retries,
            "sent": self.skew("sent").to_dict(),
            "received": self.skew("received").to_dict(),
            "hop_bytes": self.skew("hop_bytes").to_dict(),
            "retried": self.skew("retried").to_dict(),
            "top_pairs": [
                {"src": s, "dst": d, "bytes": b} for (s, d), b in self.top_pairs()
            ],
            "busiest_link_shares": [
                {"src": s, "dst": d, "share": share}
                for (s, d), share in self.busiest_link_shares()
            ],
        }


def format_ledger(ledger: CommLedger, title: str = "communication ledger") -> str:
    """Human-readable skew + heavy-hitter tables."""
    from repro.util.tables import format_table

    series = ["sent", "received", "hop_bytes"]
    if ledger.n_retries:
        series.append("retried")
    skew_rows = []
    for which in series:
        s = ledger.skew(which)
        skew_rows.append(
            (
                s.label,
                f"{s.total:.3e}",
                f"{s.max:.3e}",
                f"{s.mean:.3e}",
                f"{s.max_over_mean:6.2f}",
                f"{s.gini:5.3f}",
                f"{s.nonzero_ranks}/{s.nranks}",
            )
        )
    parts = [
        format_table(
            ["series", "total", "max", "mean", "max/mean", "Gini", "active ranks"],
            skew_rows,
            title=(
                f"{title} — {ledger.n_messages} messages over "
                f"{ledger.n_collectives} collectives"
            ),
        )
    ]
    pairs = ledger.top_pairs()
    if pairs:
        parts.append(
            format_table(
                ["src rank", "dst rank", "bytes"],
                [(str(s), str(d), f"{b:.3e}") for (s, d), b in pairs],
                title="heaviest rank pairs",
            )
        )
    shares = ledger.busiest_link_shares()
    if shares:
        parts.append(
            format_table(
                ["src rank", "dst rank", "share of busiest link"],
                [
                    (str(s), str(d), f"{share * 100:6.2f}%")
                    for (s, d), share in shares
                ],
                title="busiest-link contributions",
            )
        )
    return "\n\n".join(parts)
