"""Checkpointed nest state: the durable point recovery resumes from.

A :class:`Checkpoint` captures everything needed to rebuild lost nest data
after a fail-stop: the allocation tree (cloned, so later diffusion edits
cannot mutate the saved copy), the grid shape, every live nest's size and
weight, and each nest's *full gathered field*.  When a rank dies, the
blocks it owned are gone; :func:`repro.faults.recovery.recover_from_rank_failure`
reconstructs each retained nest from the surviving blocks and fills the
dead rank's regions from the last checkpoint — so an aborted epoch resumes
from the last durable point instead of replaying from the start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocation import Allocation
from repro.core.dataplane import RankStore, gather_nest
from repro.tree.node import TreeNode

__all__ = ["Checkpoint"]


@dataclass(frozen=True)
class Checkpoint:
    """One adaptation point's durable nest state."""

    step: int
    grid: tuple[int, int]  # (px, py) the allocation was laid out on
    tree: TreeNode | None
    nest_sizes: dict[int, tuple[int, int]]
    weights: dict[int, float]
    fields: dict[int, np.ndarray]  # nest id -> full gathered field

    def __post_init__(self) -> None:
        if set(self.fields) != set(self.nest_sizes):
            raise ValueError(
                f"fields cover nests {sorted(self.fields)} but sizes cover "
                f"{sorted(self.nest_sizes)}"
            )
        for nid, (nx, ny) in self.nest_sizes.items():
            if self.fields[nid].shape != (ny, nx):
                raise ValueError(
                    f"nest {nid}: field shape {self.fields[nid].shape} != "
                    f"size ({ny}, {nx})"
                )

    @property
    def nest_ids(self) -> list[int]:
        return sorted(self.fields)

    def has_nest(self, nest_id: int) -> bool:
        return nest_id in self.fields

    @classmethod
    def take(
        cls,
        step: int,
        allocation: Allocation,
        nest_sizes: dict[int, tuple[int, int]],
        store: RankStore,
    ) -> "Checkpoint":
        """Capture the current state: gather every live nest's field.

        The gathered arrays are copies and the tree is cloned, so the
        checkpoint stays intact however the live objects evolve.
        """
        fields: dict[int, np.ndarray] = {}
        sizes: dict[int, tuple[int, int]] = {}
        for nid in allocation.nest_ids:
            if nid not in nest_sizes:
                raise KeyError(f"no size recorded for allocated nest {nid}")
            nx, ny = nest_sizes[nid]
            fields[nid] = gather_nest(store, nid, nx, ny)
            sizes[nid] = (nx, ny)
        return cls(
            step=step,
            grid=(allocation.grid.px, allocation.grid.py),
            tree=allocation.tree.clone() if allocation.tree is not None else None,
            nest_sizes=sizes,
            weights=dict(allocation.weights),
            fields=fields,
        )
