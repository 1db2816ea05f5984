"""The time-stepping parent model and its split-file output.

:class:`WrfLikeModel` advances a population of cloud systems over the parent
domain and, at every analysis step, writes one
:class:`~repro.analysis.records.SplitFile` per simulation rank — the
subdomain's QCLOUD/OLR blocks — exactly the artefacts the paper's parallel
data analysis consumes.  Cloud births are driven by a scenario
(:mod:`repro.wrf.scenario`): either scripted events (the Mumbai-2005-like
trace) or seeded random churn (the synthetic workloads).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.analysis.records import SplitFile
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
        g = config.sim_grid
        xb = split_evenly(config.nx, g.px).tolist()
        yb = split_evenly(config.ny, g.py).tolist()
        #: ``(rank, block_x, block_y, extent, window)`` of every simulation
        #: rank's tile in rank order, ``window`` slicing the extent out of a
        #: field; fixed by the decomposition
        self._tiles: list[tuple[int, int, int, Rect, tuple[slice, slice]]] = [
            (
                g.rank(bx, by),
                bx,
                by,
                Rect(xb[bx], yb[by], xb[bx + 1] - xb[bx], yb[by + 1] - yb[by]),
                (slice(yb[by], yb[by + 1]), slice(xb[bx], xb[bx + 1])),
            )
            for by in range(g.py)
            for bx in range(g.px)
        ]

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
        return self._tiles[self.config.sim_grid.rank(block_x, block_y)][3]

    def write_split_files(self) -> list[SplitFile]:
        """One split file per simulation rank for the current step.

        Each file's arrays are views of :meth:`fields` cut along the fixed
        rank tiles.
        """
        q, o = self.fields()
        return [
            SplitFile(
                file_index=rank,
                block_x=bx,
                block_y=by,
                extent=extent,
                qcloud=q[window],
                olr=o[window],
            )
            for rank, bx, by, extent, window in self._tiles
        ]
