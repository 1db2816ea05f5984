"""A dynamical moisture model: advection + condensation cloud fields.

The default substrate (:mod:`repro.wrf.clouds`) is kinematic — Gaussian
systems on prescribed tracks.  This module provides a *dynamical*
alternative closer to what the nests exist to resolve: a two-field
(water vapour ``qvapor``, cloud water ``qcloud``) moisture model on the
parent grid, integrated with

1. **semi-Lagrangian advection** by a prescribed monsoon-like steering
   flow (westerly jet with a cyclonic perturbation drifting across the
   domain),
2. **condensation** of vapour exceeding a spatially varying saturation
   threshold (cooler "ridge" bands saturate sooner, organising the
   convection),
3. **precipitation** removing cloud water quadratically (heavier cloud
   rains out faster) and **evaporation** restoring vapour over the ocean
   band,
4. weak **diffusion** for numerical smoothness.

Convective systems emerge, drift, merge and decay from the dynamics alone
— no scripted births — and the standard detection pipeline (OLR from
``qcloud``, PDA, NNC) runs on top unchanged.  :class:`DynamicalModel`
implements the same interface as :class:`~repro.wrf.model.WrfLikeModel`
(``step`` / ``fields`` / ``write_split_files``), so every downstream
component accepts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.util.rng import make_rng
from repro.wrf.model import DomainConfig, WrfLikeModel

__all__ = ["DynamicsConfig", "DynamicalModel"]


@dataclass(frozen=True)
class DynamicsConfig:
    """Physics and numerics parameters of the moisture model.

    Defaults are tuned so that a 552x324 domain hosts 3–8 organised
    systems whose peak cloud water crosses the paper's OLR <= 200
    detection threshold.
    """

    dt: float = 1.0  # one analysis interval per step (non-dimensional)
    jet_speed: float = 1.6  # background westerlies, grid points / step
    vortex_speed: float = 1.1  # cyclone tangential speed scale
    vortex_radius_frac: float = 0.16  # cyclone radius / domain width
    vortex_drift: float = 0.7  # cyclone centre drift, points / step
    saturation_mean: float = 1.1e-3  # mean saturation mixing ratio (kg/kg)
    saturation_ripple: float = 0.45  # relative depth of the unstable pockets
    ridge_wavenumber_x: int = 4  # unstable pockets across the domain (zonal)
    ridge_wavenumber_y: int = 2  # and meridional
    condensation_rate: float = 0.55  # fraction of excess vapour per step
    evaporation_rate: float = 0.12  # cloud re-evaporation below saturation
    precipitation_rate: float = 80.0  # quadratic rain-out coefficient
    ocean_flux: float = 9.0e-5  # vapour source over the ocean band, per step
    ocean_band_frac: float = 0.55  # southern fraction of the domain that is sea
    subsidence_drying: float = 0.06  # large-scale vapour removal, per step
    diffusion: float = 0.35  # Laplacian smoothing weight
    init_vapor: float = 1.0e-3  # initial vapour mean
    init_noise: float = 0.25  # relative initial perturbation amplitude

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0 <= self.condensation_rate <= 1:
            raise ValueError("condensation_rate must be in [0, 1]")
        if not 0 <= self.evaporation_rate <= 1:
            raise ValueError("evaporation_rate must be in [0, 1]")
        if self.saturation_mean <= 0:
            raise ValueError("saturation_mean must be positive")


class DynamicalModel(WrfLikeModel):
    """Advection–condensation moisture model on the parent grid.

    Drop-in replacement for :class:`WrfLikeModel`: the cloud-system list
    and birth function are unused; ``qcloud`` comes from the prognostic
    state instead.
    """

    def __init__(
        self,
        config: DomainConfig,
        dynamics: DynamicsConfig | None = None,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(config)
        self.dynamics = dynamics or DynamicsConfig()
        rng = make_rng(seed)
        ny, nx = config.ny, config.nx
        d = self.dynamics
        # prognostic state
        noise = rng.normal(0.0, d.init_noise, (ny, nx))
        smooth_noise = ndimage.gaussian_filter(noise, sigma=min(nx, ny) / 24.0)
        smooth_noise /= max(np.abs(smooth_noise).max(), 1e-12)
        self.qvapor = d.init_vapor * (1.0 + d.init_noise * smooth_noise)
        self.qcloud_state = np.zeros((ny, nx))
        # saturation field: a cellular pattern of unstable pockets (where
        # qsat dips, vapour condenses first) so convection organises into
        # isolated systems rather than a uniform deck; the ocean band is
        # warmer (higher capacity), pushing the cells toward the coast line
        x = np.arange(nx)[None, :]
        y = np.arange(ny)[:, None]
        cells = np.sin(
            2 * np.pi * d.ridge_wavenumber_x * x / nx + 0.9 * np.sin(2 * np.pi * y / ny)
        ) * np.sin(2 * np.pi * d.ridge_wavenumber_y * y / ny + 0.5)
        meridional = 1.0 + 0.35 * (y / ny)
        self.qsat = d.saturation_mean * meridional * (1.0 + d.saturation_ripple * cells)
        # cyclone centre starts over the south-west ocean
        self._vortex = np.array([0.3 * nx, 0.72 * ny], dtype=np.float64)
        self._vortex_dir = rng.uniform(-0.3, 0.3)
        #: accumulated precipitation (rained-out cloud water), per cell
        self.accumulated_precip = np.zeros((ny, nx))

    # ------------------------------------------------------------------

    def wind(self) -> tuple[np.ndarray, np.ndarray]:
        """The steering flow ``(u, v)`` in grid points per step."""
        cfg, d = self.config, self.dynamics
        ny, nx = cfg.ny, cfg.nx
        x = np.arange(nx)[None, :]
        y = np.arange(ny)[:, None]
        # westerly jet, strongest mid-domain
        jet = d.jet_speed * np.sin(np.pi * y / ny)
        u = np.broadcast_to(jet, (ny, nx)).copy()
        v = np.zeros((ny, nx))
        # cyclonic vortex (Rankine-like) around the drifting centre
        cx, cy = self._vortex
        rx = x - cx
        ry = y - cy
        r = np.hypot(rx, ry) + 1e-9
        r0 = d.vortex_radius_frac * nx
        tangential = d.vortex_speed * (r / r0) * np.exp(1.0 - r / r0)
        u += -tangential * ry / r
        v += tangential * rx / r
        return u, v

    def _advect(self, field: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Semi-Lagrangian advection: trace back and bilinearly interpolate."""
        ny, nx = field.shape
        dt = self.dynamics.dt
        y, x = np.mgrid[0:ny, 0:nx].astype(np.float64)
        src_x = x - u * dt
        src_y = y - v * dt
        # zonal wrap (the monsoon flow re-enters), meridional clamp
        src_x %= nx
        src_y = np.clip(src_y, 0, ny - 1)
        return ndimage.map_coordinates(
            field, [src_y, src_x], order=1, mode="grid-wrap"
        )

    def step(self) -> None:
        """One analysis interval of moisture dynamics."""
        self._fields = None
        d = self.dynamics
        cfg = self.config
        u, v = self.wind()
        qv = self._advect(self.qvapor, u, v)
        qc = self._advect(self.qcloud_state, u, v)
        # condensation of super-saturated vapour
        excess = np.maximum(qv - self.qsat, 0.0)
        condensed = d.condensation_rate * excess
        qv -= condensed
        qc += condensed
        # re-evaporation where sub-saturated
        deficit = np.maximum(self.qsat - qv, 0.0)
        evaporated = np.minimum(d.evaporation_rate * qc, 0.5 * deficit)
        qc -= evaporated
        qv += evaporated
        # precipitation (quadratic rain-out of heavy cloud); the removed
        # water accumulates as surface rainfall — the paper's motivating
        # observable ("heavy rain and flash flooding")
        rained = qc - qc / (1.0 + d.precipitation_rate * qc)
        self.accumulated_precip += rained
        qc = qc - rained
        # ocean evaporation source over the southern band, balanced by
        # large-scale subsidence drying so vapour saturates only in pockets
        ny = cfg.ny
        ocean = np.zeros((ny, cfg.nx))
        ocean[int(ny * (1.0 - d.ocean_band_frac)) :, :] = 1.0
        qv += d.ocean_flux * ocean
        qv *= 1.0 - d.subsidence_drying
        # diffusion
        if d.diffusion > 0:
            qv = (1 - d.diffusion) * qv + d.diffusion * ndimage.uniform_filter(qv, 3, mode="nearest")
            qc = (1 - d.diffusion) * qc + d.diffusion * ndimage.uniform_filter(qc, 3, mode="nearest")
        self.qvapor = np.maximum(qv, 0.0)
        self.qcloud_state = np.maximum(qc, 0.0)
        # drift the cyclone with the flow (and a slow random-walk-free arc)
        jet_here = d.jet_speed * np.sin(np.pi * self._vortex[1] / ny)
        self._vortex[0] = (self._vortex[0] + d.vortex_drift * jet_here) % cfg.nx
        self._vortex[1] += d.vortex_drift * 0.25 * np.sin(self._vortex_dir + self.step_count / 9.0)
        self._vortex[1] = float(np.clip(self._vortex[1], 0.2 * ny, 0.9 * ny))
        self.step_count += 1

    def _qcloud(self) -> np.ndarray:
        """This step's cloud water, copied from the prognostic state so the
        read-only ``(qcloud, olr)`` pair never aliases the model's state."""
        return self.qcloud_state.copy()
