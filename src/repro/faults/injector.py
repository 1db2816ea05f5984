"""Applies the machine layer of a :class:`~repro.faults.plan.FaultPlan`.

The injector is the single choke point between a declarative plan and the
hooks scattered through the pipeline: crashed simulation ranks feed the
:class:`~repro.faults.recovery.HealthView`, link and straggler faults
program the :class:`~repro.mpisim.netsim.NetworkSimulator`, and split-file
faults damage the PDA inputs.  Every applied fault emits a ``fault.inject``
flight event, so a soak run's log reads as a causal chain:
injection → detection → degraded reallocation → recovered redistribution.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.records import SplitBatch
from repro.faults.plan import (
    FaultPlan,
    LinkFault,
    MachineFault,
    RankCrash,
    RankStraggler,
    SplitFileFault,
)
from repro.mpisim.netsim import NetworkSimulator
from repro.obs import get_recorder

__all__ = ["FaultInjector"]


class FaultInjector:
    """Walks a plan step by step, applying each fault to its hook."""

    def __init__(
        self,
        plan: FaultPlan,
        simulator: NetworkSimulator | None = None,
    ) -> None:
        self.plan = plan
        self.simulator = simulator
        self._crashed: set[int] = set()
        self._applied: list[MachineFault] = []

    @property
    def crashed_ranks(self) -> frozenset[int]:
        """Every rank crashed by the plan so far."""
        return frozenset(self._crashed)

    @property
    def applied(self) -> list[MachineFault]:
        """Faults applied so far, in application order."""
        return list(self._applied)

    def apply_step(self, step: int) -> list[MachineFault]:
        """Fire every fault scheduled at ``step``; returns what was applied.

        Split-file faults are *not* applied here — they damage data, not
        infrastructure, so they fire when the files pass through
        :meth:`damage_files`.
        """
        flight = get_recorder()
        fired: list[MachineFault] = []
        for fault in self.plan.at_step(step):
            if isinstance(fault, RankCrash):
                self._crashed.add(fault.rank)
                flight.emit(
                    "fault.inject", step=step, fault="rank_crash", rank=fault.rank
                )
            elif isinstance(fault, LinkFault):
                if self.simulator is not None:
                    self.simulator.set_link_fault(fault.link, fault.factor)
                flight.emit(
                    "fault.inject",
                    step=step,
                    fault="link_fault",
                    link=fault.link,
                    factor=fault.factor,
                )
            elif isinstance(fault, RankStraggler):
                if self.simulator is not None:
                    self.simulator.set_rank_slowdown(fault.rank, fault.factor)
                flight.emit(
                    "fault.inject",
                    step=step,
                    fault="straggler",
                    rank=fault.rank,
                    factor=fault.factor,
                )
            else:  # SplitFileFault fires in damage_files
                continue
            fired.append(fault)
            self._applied.append(fault)
        return fired

    def damage_files(self, step: int, batch: SplitBatch) -> SplitBatch:
        """Apply this step's split-file faults to a PDA input batch.

        Returns a new batch; ``batch`` and the fields it shares are never
        written.  Truncation marks the tile missing (the file never made it
        to disk); corruption gives the tile a private copy whose QCLOUD is
        poisoned with a NaN, which PDA's finiteness check must catch.
        Out-of-range file indices are ignored — a plan written for a larger
        grid degrades gracefully.
        """
        flight = get_recorder()
        missing = batch.missing.copy()
        damaged = dict(batch.damaged)
        for fault in self.plan.at_step(step):
            if not isinstance(fault, SplitFileFault):
                continue
            rank = fault.file_index
            if rank >= len(batch) or missing[rank]:
                continue
            if fault.mode == "truncate":
                missing[rank] = True
                damaged.pop(rank, None)
            else:
                qcloud, olr = damaged.get(rank, batch.tile_fields(rank))
                poisoned = qcloud.copy()
                poisoned[0, 0] = np.nan
                damaged[rank] = (poisoned, olr.copy())
            flight.emit(
                "fault.inject",
                step=step,
                fault=f"split_file_{fault.mode}",
                file_index=rank,
            )
            self._applied.append(fault)
        return dataclasses.replace(batch, missing=missing, damaged=damaged)
