"""Vectorised QCLOUD / OLR field synthesis.

QCLOUD (cloud water mixing ratio, kg/kg) is the sum of the systems'
Gaussian footprints modulated by their life-cycle intensity.  OLR (outgoing
long-wave radiation, W/m²) falls from a clear-sky value toward a deep-cloud
floor as the column cloud water rises: tall convective towers are cold at
cloud top and radiate far less to space, which is why the paper detects
organised systems through coherent OLR <= 200 W/m² patches (Gu & Zhang 2002).

Both fields are built with NumPy broadcasting — no per-gridpoint Python
loops — per the HPC guides: evaluating a 552 x 324 domain with ten systems
is a handful of array expressions.
"""

from __future__ import annotations

import numpy as np

from repro.wrf.clouds import CloudSystem

__all__ = ["qcloud_field", "olr_field"]

#: Clear-sky OLR over the tropical Indian Ocean region (W/m²).
CLEAR_SKY_OLR = 295.0
#: OLR of a fully developed cumulonimbus top (W/m²).
DEEP_CLOUD_OLR = 95.0
#: Column cloud water (kg/kg) at which OLR saturates at the deep-cloud floor.
QCLOUD_SATURATION = 1.0e-3


def qcloud_field(
    nx: int, ny: int, systems: list[CloudSystem], cutoff_sigmas: float = 4.0
) -> np.ndarray:
    """Cloud-water field of shape ``(ny, nx)`` for the given systems.

    Each system contributes ``peak * intensity * exp(-dx²/2σx² - dy²/2σy²)``
    evaluated only inside a ``cutoff_sigmas``-σ bounding box (the tails are
    numerically zero beyond it, and skipping them keeps large domains cheap).
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"domain must be at least 1x1, got {nx}x{ny}")
    field = np.zeros((ny, nx), dtype=np.float64)
    for s in systems:
        amp = s.peak * s.intensity
        if amp <= 0:
            continue
        x0 = max(0, int(np.floor(s.x - cutoff_sigmas * s.sigma_x)))
        x1 = min(nx, int(np.ceil(s.x + cutoff_sigmas * s.sigma_x)) + 1)
        y0 = max(0, int(np.floor(s.y - cutoff_sigmas * s.sigma_y)))
        y1 = min(ny, int(np.ceil(s.y + cutoff_sigmas * s.sigma_y)) + 1)
        if x0 >= x1 or y0 >= y1:
            continue  # system drifted outside the domain
        xs = np.arange(x0, x1, dtype=np.float64)
        ys = np.arange(y0, y1, dtype=np.float64)
        gx = np.exp(-0.5 * ((xs - s.x) / s.sigma_x) ** 2)
        gy = np.exp(-0.5 * ((ys - s.y) / s.sigma_y) ** 2)
        field[y0:y1, x0:x1] += amp * gy[:, None] * gx[None, :]
    return field


def olr_field(
    qcloud: np.ndarray,
    clear_sky: float = CLEAR_SKY_OLR,
    deep_cloud: float = DEEP_CLOUD_OLR,
    saturation: float = QCLOUD_SATURATION,
) -> np.ndarray:
    """OLR field for a cloud-water field.

    ``OLR = clear_sky - (clear_sky - deep_cloud) * min(qcloud/saturation, 1)``
    — linear darkening with column cloud water, clamped at the deep-cloud
    floor.  With the defaults, OLR crosses the paper's 200 W/m² detection
    threshold at roughly half the saturation cloud water, so only organised
    systems (not thin debris cloud) trigger nests.
    """
    if clear_sky <= deep_cloud:
        raise ValueError(
            f"clear_sky OLR ({clear_sky}) must exceed deep_cloud OLR ({deep_cloud})"
        )
    if saturation <= 0:
        raise ValueError(f"saturation must be positive, got {saturation}")
    # one new array, updated in place: the full-domain temporaries of the
    # plain expression cost more than its arithmetic
    q = np.asarray(qcloud, dtype=np.float64)
    depth = np.divide(q, saturation, out=np.empty_like(q))
    np.minimum(depth, 1.0, out=depth)
    depth *= clear_sky - deep_cloud
    return np.subtract(clear_sky, depth, out=depth)
