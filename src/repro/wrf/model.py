"""The time-stepping parent model and its split-file output.

:class:`WrfLikeModel` advances a population of cloud systems over the parent
domain and, at every analysis step, writes one split file per simulation
rank — the subdomain's QCLOUD/OLR blocks — exactly the artefacts the
paper's parallel data analysis consumes, handed over as one
:class:`~repro.analysis.records.SplitBatch` over the step's fields.  Cloud
births are driven by a scenario (:mod:`repro.wrf.scenario`): either scripted
events (the Mumbai-2005-like trace) or seeded random churn (the synthetic
workloads).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.analysis.records import SplitBatch
from repro.grid.block import split_evenly
from repro.grid.procgrid import ProcessorGrid
from repro.grid.rect import Rect
from repro.wrf.clouds import CloudSystem, advance_systems
from repro.wrf.fields import olr_field, qcloud_field

__all__ = ["DomainConfig", "WrfLikeModel"]


@dataclass(frozen=True)
class DomainConfig:
    """Parent-domain geometry and decomposition.

    Defaults mirror the paper: the Indian region 60E–120E, 5N–40N at 12 km
    (≈ 552 x 324 grid points), decomposed over the simulation process grid.
    """

    nx: int = 552
    ny: int = 324
    sim_grid: ProcessorGrid = ProcessorGrid(32, 32)
    resolution_km: float = 12.0
    nest_refinement: int = 3  # nests run at 4 km = 12/3

    def __post_init__(self) -> None:
        if self.nx < self.sim_grid.px or self.ny < self.sim_grid.py:
            raise ValueError(
                f"domain {self.nx}x{self.ny} smaller than process grid "
                f"{self.sim_grid}"
            )
        if self.nest_refinement < 1:
            raise ValueError(f"nest_refinement must be >= 1")

    def tile_bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(x_bounds, y_bounds)`` of the simulation ranks' tiles.

        Rank ``(bx, by)`` owns parent points ``[x_bounds[bx],
        x_bounds[bx + 1]) x [y_bounds[by], y_bounds[by + 1])``, a balanced
        split (:func:`~repro.grid.block.split_evenly`) of each axis.
        """
        g = self.sim_grid
        return (
            tuple(split_evenly(self.nx, g.px).tolist()),
            tuple(split_evenly(self.ny, g.py).tolist()),
        )


class WrfLikeModel:
    """Cloud-field simulator producing per-rank split files.

    Parameters
    ----------
    config:
        Domain geometry and decomposition.
    birth_fn:
        ``birth_fn(step, systems) -> list[CloudSystem]`` — scenario hook
        returning the systems born at this step (may be empty).
    systems:
        Initial cloud systems.
    """

    def __init__(
        self,
        config: DomainConfig,
        birth_fn: Callable[[int, list[CloudSystem]], list[CloudSystem]] | None = None,
        systems: list[CloudSystem] | None = None,
    ) -> None:
        self.config = config
        self.birth_fn = birth_fn or (lambda step, systems: [])
        self.systems: list[CloudSystem] = list(systems or [])
        self.step_count = 0
        #: this step's ``(qcloud, olr)`` once :meth:`fields` has built them
        self._fields: tuple[np.ndarray, np.ndarray] | None = None
        #: the simulation ranks' tile bounds, fixed by the decomposition
        self._tiles = config.tile_bounds()
        #: every step's batch shares this (no file is lost by the model)
        self._none_missing = np.zeros(config.sim_grid.nprocs, dtype=bool)
        self._none_missing.flags.writeable = False

    def step(self) -> None:
        """Advance one analysis interval (the paper's 2 simulated minutes)."""
        self._fields = None
        self.systems = advance_systems(self.systems)
        born = self.birth_fn(self.step_count, self.systems)
        self.systems.extend(born)
        self.step_count += 1

    # ------------------------------------------------------------------

    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """Current full-domain ``(qcloud, olr)`` fields, shape ``(ny, nx)``.

        The pair is synthesised at most once per step, on the first call
        after :meth:`step` (the only thing that invalidates it); later calls
        return the same read-only arrays.
        """
        if self._fields is None:
            q = self._qcloud()
            o = olr_field(q)
            q.flags.writeable = False
            o.flags.writeable = False
            self._fields = (q, o)
        return self._fields

    def _qcloud(self) -> np.ndarray:
        """A new cloud-water field for the current state."""
        return qcloud_field(self.config.nx, self.config.ny, self.systems)

    def subdomain_extent(self, block_x: int, block_y: int) -> Rect:
        """Grid-point extent of simulation rank block ``(block_x, block_y)``."""
        self.config.sim_grid.rank(block_x, block_y)  # validates the block
        xb, yb = self._tiles
        return Rect(
            xb[block_x],
            yb[block_y],
            xb[block_x + 1] - xb[block_x],
            yb[block_y + 1] - yb[block_y],
        )

    def write_split_files(self) -> SplitBatch:
        """Every simulation rank's split file for the current step.

        The batch holds :meth:`fields` itself and the fixed rank tiles;
        nothing is cut or copied.
        """
        q, o = self.fields()
        return SplitBatch(q, o, *self._tiles, self._none_missing)
