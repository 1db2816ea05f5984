"""Execution-time prediction: Delaunay over domains, linear over processors.

Following the paper (§IV-C2, after Malakar et al. SC'12):

1. at each profiled processor count, the 13 profiled domains are Delaunay-
   triangulated in (area, aspect-ratio) space and the query nest's time is
   linearly interpolated inside the triangulation (nearest-neighbour
   fallback outside the hull);
2. the 10 per-processor-count predictions are then linearly interpolated at
   the query processor count (clamped to the profiled range).

"The prediction execution times are used for dynamic selection of methods,
and also for determining the weights of the nests needed for processor
allocation in the partition from scratch and our tree-based methods."
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import LinearNDInterpolator, NearestNDInterpolator

from repro.perfmodel.profiles import ProfileTable

__all__ = ["ExecTimePredictor"]

#: most nest sizes the interpolation memo holds; a full memo is cleared
#: (entries are pure, so clearing changes no prediction)
_PROFILE_CACHE_LIMIT = 512


class ExecTimePredictor:
    """Interpolating execution-time predictor built from a profile table."""

    def __init__(self, profiles: ProfileTable) -> None:
        self.profiles = profiles
        feats = profiles.features
        # Normalise features so the triangulation is well-conditioned
        # (areas are O(1e5), aspects O(1)).
        self._scale = feats.max(axis=0)
        pts = feats / self._scale
        # one triangulation serves every processor count: each interpolator
        # maps a domain to its whole row of profiled times
        self._linear = LinearNDInterpolator(pts, profiles.times)
        self._nearest = NearestNDInterpolator(pts, profiles.times)
        self._proc_counts = np.asarray(profiles.proc_counts, dtype=np.float64)
        # Nest sizes recur at every adaptation point (a tracked storm keeps
        # its fine-grid size for many steps), so the scipy interpolation —
        # the dominant cost of a prediction — is memoised per (nx, ny), up
        # to _PROFILE_CACHE_LIMIT sizes; callers only ever see copies, so
        # results match an uncached run.
        self._profile_cache: dict[tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------------

    def _domain_features(self, nx: int, ny: int) -> np.ndarray:
        if nx < 1 or ny < 1:
            raise ValueError(f"nest size must be >= 1x1, got {nx}x{ny}")
        return np.asarray([nx * ny, max(nx, ny) / min(nx, ny)]) / self._scale

    def predict_at_profiled_counts(self, nx: int, ny: int) -> np.ndarray:
        """Predicted times of the nest at every profiled processor count."""
        key = (int(nx), int(ny))
        cached = self._profile_cache.get(key)
        if cached is not None:
            return cached.copy()
        q = self._domain_features(nx, ny)[None, :]
        row = self._linear(q)[0]
        if np.isnan(row).any():  # outside the convex hull of profiled domains
            row = self._nearest(q)[0]
        if len(self._profile_cache) >= _PROFILE_CACHE_LIMIT:
            self._profile_cache.clear()
        # the copy owns its 10 values; ``row`` is a view that keeps the
        # interpolator's whole output alive
        self._profile_cache[key] = row.copy()
        return row

    def predict(self, nx: int, ny: int, nprocs: int) -> float:
        """Predicted execution time of an ``nx x ny`` nest on ``nprocs``."""
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        per_count = self.predict_at_profiled_counts(nx, ny)
        p = float(np.clip(nprocs, self._proc_counts[0], self._proc_counts[-1]))
        return float(np.interp(p, self._proc_counts, per_count))

    def weights(self, nests: dict[int, tuple[int, int]], total_procs: int) -> dict[int, float]:
        """Allocation weights: each nest's share of predicted execution time.

        The paper uses "the ratios of the predicted execution times of the
        nests" as Huffman weights; prediction is taken at the full machine
        size so the ratios reflect workload (size/aspect), then normalised.
        """
        if not nests:
            return {}
        raw = {
            nid: self.predict(nx, ny, total_procs) for nid, (nx, ny) in nests.items()
        }
        total = sum(raw.values())
        return {nid: v / total for nid, v in raw.items()}
