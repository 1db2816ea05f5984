"""The coupled simulation driver — the paper's contribution 2 as one object.

:class:`CoupledSimulation` wires every subsystem together the way the
paper's modified WRF does:

    parent model step → split files → parallel data analysis → ROIs →
    nest tracking → processor reallocation → executed redistribution of
    retained nests' state → (optional) integrity verification.

Each nest carries an actual payload (its QCLOUD field at spawn, refreshed
from the parent after geometry changes); at every adaptation point one
:class:`~repro.core.stepper.AdaptationStepper` call *physically moves*
the retained nests' payloads from the old processor rectangles to the new
ones and — with ``verify_data=True`` — gathers them back and checks them
bit-for-bit, so a correctness bug anywhere in the tree edits, the layout,
the block decomposition or the transfer matrices is caught at the step it
happens.

ROI geometry changes are handled the way WRF handles moving nests: the
payload is re-interpolated from the parent onto the new ROI (regridding)
on the ranks that hold it, then the plan's move redistributes it at its
new size onto the new rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataplane import RankStore
from repro.core.diffusion import DiffusionStrategy
from repro.core.reallocator import ProcessorReallocator, StepResult
from repro.core.stepper import AdaptationStepper
from repro.core.strategy import ReallocationStrategy
from repro.grid.rect import Rect
from repro.mpisim.costmodel import CostModel
from repro.obs import get_recorder
from repro.perfmodel.exectime import ExecTimePredictor
from repro.perfmodel.groundtruth import ExecutionOracle
from repro.perfmodel.profiles import ProfileTable
from repro.topology.machines import MachineSpec, blue_gene_l
from repro.wrf.model import WrfLikeModel
from repro.wrf.nests import NestTracker, detect_nests
from repro.wrf.scenario import Scenario, mumbai_2005_scenario

__all__ = ["CoupledSimulation", "CoupledStepResult"]


@dataclass(frozen=True)
class CoupledStepResult:
    """Everything one adaptation point produced."""

    step: int
    rois: list[Rect]
    spawned: list[int]
    retained: list[int]
    deleted: list[int]
    reallocation: StepResult
    moved_bytes: float
    verified_nests: list[int]  # nests whose payload integrity was checked


class CoupledSimulation:
    """End-to-end nested-simulation framework on the simulated machine."""

    def __init__(
        self,
        machine: MachineSpec | None = None,
        scenario: Scenario | None = None,
        strategy: ReallocationStrategy | None = None,
        predictor: ExecTimePredictor | None = None,
        n_analysis: int = 64,
        roi_side_range: tuple[int, int] = (58, 120),
        verify_data: bool = True,
    ) -> None:
        self.machine = machine or blue_gene_l(1024)
        self.scenario = scenario or mumbai_2005_scenario()
        self.config = self.scenario.config
        self.model = WrfLikeModel(
            self.config, self.scenario.birth_fn, self.scenario.initial_systems
        )
        self.tracker = NestTracker(refinement=self.config.nest_refinement)
        self.predictor = predictor or ExecTimePredictor(ProfileTable(ExecutionOracle()))
        self.reallocator = ProcessorReallocator(
            self.machine,
            strategy or DiffusionStrategy(),
            self.predictor,
            CostModel.for_machine(self.machine),
        )
        self.n_analysis = n_analysis
        self.roi_side_range = roi_side_range
        self.store = RankStore(self.machine.ncores)
        self.stepper = AdaptationStepper(self.reallocator, store=self.store, verify=verify_data)
        self.step_count = 0

    # ------------------------------------------------------------------

    def _payload(self, nest_id: int, nx: int, ny: int) -> np.ndarray:
        """A nest's field payload: the step's QCLOUD interpolated onto the
        fine grid (the model synthesises its fields once per step)."""
        qcloud, _ = self.model.fields()
        return self.tracker.live[nest_id].interpolate_from_parent(qcloud)

    def step(self) -> CoupledStepResult:
        """Advance one adaptation interval end to end."""
        recorder = get_recorder()
        with recorder.bind(step=self.step_count + 1), recorder.span("driver.step"):
            with recorder.span("driver.model"):
                self.model.step()
            self.step_count += 1
            with recorder.span("driver.detect"):
                found = detect_nests(
                    self.model, self.tracker, self.n_analysis, self.roi_side_range
                )
            point = self.stepper.step(found.nests, self._payload)
        return CoupledStepResult(
            step=self.step_count,
            rois=found.rois,
            spawned=[n.nest_id for n in found.spawned],
            retained=[n.nest_id for n in found.retained],
            deleted=found.deleted,
            reallocation=point.reallocation,
            moved_bytes=point.moved_bytes,
            verified_nests=point.verified,
        )

    def run(self, n_steps: int) -> list[CoupledStepResult]:
        """Run ``n_steps`` adaptation points and return their results."""
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        return [self.step() for _ in range(n_steps)]

    # ------------------------------------------------------------------

    def total_nest_memory(self) -> int:
        """Bytes of nest state currently resident across all ranks."""
        return sum(record.buf.nbytes for record in self.store.nests.values())
