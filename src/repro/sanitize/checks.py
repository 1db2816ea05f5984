"""The conservation sanitizer: TSan/ASan-style runtime checkpoints.

A :class:`Sanitizer` records every violated conservation property at the
adaptation-point hooks defined by
:class:`~repro.sanitize.hooks.SanitizerHook`:

* **plan conservation** — every move's transfer matrix (an executed
  plan's, or a dynamic-strategy candidate's) accounts for each nest point
  exactly once, local+network points partition, and a plan's
  ``network_bytes`` equals the sum of its per-move message bytes;
* **store tiling** — after execution/scatter/recovery, each nest's
  blocks tile its grid disjointly (every point stored exactly once,
  every block shaped like its rectangle), and after a move each new
  owner holds exactly the points the move's transfer matrix sent it;
* **tree invariants** — a ``diffusion_edit`` result names exactly the
  retained+new nests with their requested weights and internally
  consistent sums;
* **PDA accounting** — coverage renormalisation stays in ``[0, 1]`` and
  agrees with the partial-result flags;
* **ledger vs netsim** — sent equals received in aggregate, per-pair
  byte totals match per-rank totals, and the busiest-link per-pair
  split sums to the link load the netsim reported;
* **link-state conservation** — the incremental per-link loads equal a
  rebuild, and each key's charge carries exactly its messages'
  hop-bytes over the links.

Violations are appended to :attr:`Sanitizer.violations` and emitted to
the ambient flight recorder as ``sanitizer.violation`` events; with
``strict=True`` the first violation raises :class:`SanitizeError`.

This module deliberately imports only numpy, the flight recorder, the
hook base and the hop-bytes metric — never ``repro.core`` — so the core
can import the hook surface without a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.mpisim.alltoallv import hop_bytes
from repro.obs.recorder import get_recorder
from repro.sanitize.hooks import SanitizerHook

__all__ = ["SanitizeError", "SanitizeViolation", "Sanitizer"]

_REL_TOL = 1e-9


class SanitizeError(AssertionError):
    """Raised (in strict mode) when a conservation checkpoint fails."""


@dataclass(frozen=True)
class SanitizeViolation:
    """One failed checkpoint: which check, and what it saw."""

    check: str
    message: str

    def __str__(self) -> str:
        return f"{self.check}: {self.message}"


class Sanitizer(SanitizerHook):
    """Collects conservation violations at every adaptation checkpoint."""

    enabled = True

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.violations: list[SanitizeViolation] = []
        self.checks_run: dict[str, int] = {}

    # -- bookkeeping -------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def total_checks(self) -> int:
        return sum(self.checks_run.values())

    def _ran(self, check: str) -> None:
        self.checks_run[check] = self.checks_run.get(check, 0) + 1

    def _violate(self, check: str, message: str) -> None:
        violation = SanitizeViolation(check=check, message=message)
        self.violations.append(violation)
        get_recorder().emit(
            "sanitizer.violation", check=check, detail=message[:200]
        )
        if self.strict:
            raise SanitizeError(str(violation))

    # -- checkpoints -------------------------------------------------------

    def after_moves(self, moves: list[Any], nest_sizes: dict[int, tuple[int, int]]) -> None:
        self._ran("plan.conservation")
        for move in moves:
            nx, ny = nest_sizes[move.nest_id]
            got = int(move.transfer.points.sum())
            if got != nx * ny:
                self._violate(
                    "plan.conservation",
                    f"nest {move.nest_id}: transfer covers {got} of "
                    f"{nx * ny} points",
                )
            local = move.transfer.local_points
            network = move.transfer.network_points
            if local + network != nx * ny:
                self._violate(
                    "plan.conservation",
                    f"nest {move.nest_id}: local {local} + network {network} "
                    f"!= {nx * ny}",
                )

    def after_plan(self, plan: Any, nest_sizes: dict[int, tuple[int, int]]) -> None:
        self.after_moves(plan.moves, nest_sizes)
        message_bytes = sum(float(move.messages.total_bytes) for move in plan.moves)
        if not math.isclose(
            plan.network_bytes, message_bytes, rel_tol=_REL_TOL, abs_tol=1e-6
        ):
            self._violate(
                "plan.bytes",
                f"plan.network_bytes {plan.network_bytes} != sum of move "
                f"message bytes {message_bytes}",
            )
        if not 0.0 <= plan.overlap_fraction <= 1.0:
            self._violate(
                "plan.overlap",
                f"overlap fraction {plan.overlap_fraction} outside [0, 1]",
            )
        if plan.predicted_time < 0 or plan.measured_time < 0:
            self._violate("plan.time", "negative redistribution time")

    def _check_store_tiling(
        self, check: str, store: Any, nest_id: int, nx: int, ny: int
    ) -> None:
        self._ran(check)
        occupancy = np.zeros((ny, nx), dtype=np.int64)
        holders = store.holders(nest_id)
        if not holders:
            self._violate(check, f"nest {nest_id}: no rank holds any block")
            return
        for rank in holders:
            block, rect = store.get(rank, nest_id)
            if block.shape != (rect.h, rect.w):
                self._violate(
                    check,
                    f"nest {nest_id} rank {rank}: block shape {block.shape} "
                    f"!= rectangle {rect.h}x{rect.w}",
                )
                continue
            if rect.x1 > nx or rect.y1 > ny or rect.x0 < 0 or rect.y0 < 0:
                self._violate(
                    check,
                    f"nest {nest_id} rank {rank}: rectangle {rect} escapes "
                    f"the {nx}x{ny} nest grid",
                )
                continue
            occupancy[rect.y0 : rect.y1, rect.x0 : rect.x1] += 1
        over = int((occupancy > 1).sum())
        missing = int((occupancy == 0).sum())
        if over:
            self._violate(
                check, f"nest {nest_id}: {over} points stored more than once"
            )
        if missing:
            self._violate(
                check,
                f"nest {nest_id}: {missing} of {nx * ny} points lost "
                "(bytes not conserved across the move)",
            )

    def after_execute(self, store: Any, move: Any) -> None:
        check, nest_id = "execute.conservation", move.nest_id
        self._check_store_tiling(check, store, nest_id, move.nx, move.ny)
        # each new owner holds exactly the points the plan sent it
        planned: dict[int, int] = {}
        transfer = move.transfer
        for rank, points in zip(transfer.receivers.tolist(), transfer.points.tolist()):
            planned[rank] = planned.get(rank, 0) + points
        wrong: list[str] = []
        for rank in store.holders(nest_id):
            area, sent = store.get(rank, nest_id)[1].area, planned.get(rank, 0)
            if area != sent:
                wrong.append(f"rank {rank} holds {area} points, was sent {sent}")
        if wrong:
            self._violate(
                check,
                f"nest {nest_id}: {len(wrong)} ranks hold other than the plan "
                f"sent them ({wrong[0]})",
            )

    def after_scatter(self, store: Any, nest_id: int, nx: int, ny: int) -> None:
        self._check_store_tiling("scatter.tiling", store, nest_id, nx, ny)

    def after_recovery(
        self, store: Any, nest_sizes: dict[int, tuple[int, int]], retained: list[int]
    ) -> None:
        for nest_id in sorted(retained):
            nx, ny = nest_sizes[nest_id]
            self._check_store_tiling("recovery.rebuild", store, nest_id, nx, ny)

    def after_tree_edit(
        self,
        tree: Any,
        deleted: list[int],
        retained_weights: dict[int, float],
        new_weights: dict[int, float],
    ) -> None:
        self._ran("tree.invariants")
        expected = sorted(retained_weights) + sorted(new_weights)
        expected = sorted(expected)
        if tree is None:
            if expected:
                self._violate(
                    "tree.invariants",
                    f"edit returned no tree but nests {expected} should "
                    "survive",
                )
            return
        try:
            tree.validate()
        except AssertionError as exc:
            self._violate("tree.invariants", f"edited tree invalid: {exc}")
            return
        got = sorted(tree.nest_ids())
        if got != expected:
            self._violate(
                "tree.invariants",
                f"edited tree holds nests {got}, expected {expected}",
            )
            return
        wanted = dict(retained_weights)
        wanted.update(new_weights)
        for leaf in tree.nest_leaves():
            want = wanted.get(leaf.nest_id)
            if want is not None and not math.isclose(
                leaf.weight, float(want), rel_tol=_REL_TOL, abs_tol=1e-12
            ):
                self._violate(
                    "tree.invariants",
                    f"nest {leaf.nest_id} weight {leaf.weight} != requested "
                    f"{want}",
                )
        total = sum(float(w) for w in wanted.values())
        if not math.isclose(tree.weight, total, rel_tol=1e-6, abs_tol=1e-9):
            self._violate(
                "tree.invariants",
                f"root weight {tree.weight} != sum of nest weights {total}",
            )

    def after_pda(self, result: Any) -> None:
        self._ran("pda.coverage")
        if not 0.0 <= result.coverage <= 1.0 + _REL_TOL:
            self._violate(
                "pda.coverage",
                f"coverage {result.coverage} outside [0, 1]",
            )
        if not 0.0 <= result.low_olr_fraction <= 1.0 + _REL_TOL:
            self._violate(
                "pda.coverage",
                f"low_olr_fraction {result.low_olr_fraction} outside [0, 1]",
            )
        losses = (
            result.n_files_missing + result.n_files_corrupt + result.n_ranks_failed
        )
        if result.partial != bool(losses):
            self._violate(
                "pda.coverage",
                f"partial={result.partial} disagrees with "
                f"{losses} recorded losses",
            )
        if not result.partial and not math.isclose(
            result.coverage, 1.0, rel_tol=1e-9
        ):
            self._violate(
                "pda.coverage",
                f"complete analysis reports coverage {result.coverage} != 1",
            )

    def after_busiest_link(
        self, link_load: float, contributions: dict[tuple[int, int], float]
    ) -> None:
        self._ran("ledger.busiest_link")
        if link_load < 0:
            self._violate(
                "ledger.busiest_link", f"negative link load {link_load}"
            )
        negative = [p for p, b in contributions.items() if b < 0]
        if negative:
            self._violate(
                "ledger.busiest_link",
                f"negative per-pair contributions for {negative[:4]}",
            )
        total = sum(contributions.values())
        if contributions and not math.isclose(
            total, link_load, rel_tol=1e-6, abs_tol=1e-6
        ):
            self._violate(
                "ledger.busiest_link",
                f"per-pair contributions sum to {total} but the netsim "
                f"reported link load {link_load}",
            )

    def after_link_state(self, link_state: Any) -> None:
        """Incremental link-load state vs its from-scratch rebuild, and
        each charge vs its messages' hop-bytes.

        The deltas are exact (integer-valued float64 byte counts), so the
        live array must match a rebuild *bit-for-bit* and never dip below
        zero — any drift means a contribution was double-applied or a
        retired key leaked.  Rebuild and increments price the wire with
        the same kernel, so a kernel bug would pass that comparison; every
        byte crosses exactly ``hops`` links, so each key's charge summed
        over links must also equal the ``hop_bytes`` total of its messages,
        which counts hops with ``topology.hops`` and shares no code with
        routes or ring intervals.  Both sums are exact integers.
        """
        self._ran("linkstate.conservation")
        loads = link_state.loads
        if bool((loads < 0).any()):
            worst = float(loads.min())
            self._violate(
                "linkstate.conservation",
                f"incremental link loads dipped negative (min {worst})",
            )
        rebuilt = link_state.rebuild()
        if not np.array_equal(loads, rebuilt):
            diff = np.abs(loads - rebuilt)
            bad = int((diff > 0).sum())
            self._violate(
                "linkstate.conservation",
                f"incremental link loads differ from rebuild on {bad} links "
                f"(max delta {float(diff.max())})",
            )
        mapping = link_state.simulator.mapping
        for key in link_state.active_keys:
            charged = float(link_state.charge_for(key)[1].sum())
            expected, _avg = hop_bytes(link_state.messages_for(key), mapping)
            if charged != expected:
                self._violate(
                    "linkstate.conservation",
                    f"key {key}: links carry {charged} byte-hops but its "
                    f"messages' hop-bytes are {expected}",
                )

    def audit_store(
        self, store: Any, nest_sizes: dict[int, tuple[int, int]]
    ) -> None:
        """End-of-step audit: re-verify every live nest's tiling."""
        for nest_id in sorted(nest_sizes):
            nx, ny = nest_sizes[nest_id]
            self._check_store_tiling("audit.tiling", store, nest_id, nx, ny)

    def record_violation(self, check: str, message: str) -> None:
        """Report a violation detected outside the hook surface.

        The fault soak uses this for its bit-for-bit data comparisons,
        which need the ground-truth fields only it holds.
        """
        self._violate(check, message)

    def check_ledger(self, ledger: Any) -> None:
        self._ran("ledger.totals")
        sent = float(ledger.sent.sum())
        received = float(ledger.received.sum())
        if not math.isclose(sent, received, rel_tol=1e-9, abs_tol=1e-6):
            self._violate(
                "ledger.totals",
                f"total sent {sent} != total received {received}",
            )
        pair_total = float(ledger.pair_bytes.total())
        if not math.isclose(pair_total, sent, rel_tol=1e-9, abs_tol=1e-6):
            self._violate(
                "ledger.totals",
                f"per-pair bytes {pair_total} != per-rank sent {sent}",
            )
        busiest_total = float(ledger.busiest_pair_bytes.total())
        if not math.isclose(
            busiest_total, ledger.busiest_link_load, rel_tol=1e-6, abs_tol=1e-6
        ):
            self._violate(
                "ledger.totals",
                f"busiest-pair bytes {busiest_total} != accumulated busiest "
                f"link load {ledger.busiest_link_load}",
            )
        for name in ("sent", "received", "hop_bytes", "retried"):
            arr = getattr(ledger, name)
            if bool((arr < 0).any()):
                self._violate("ledger.totals", f"negative entries in {name}")
