"""Seeded random-number-generator helpers.

All stochastic behaviour in the library (synthetic cloud events, profiling
noise, workload churn) flows through generators produced here so that every
experiment is reproducible.  :func:`make_rng` wraps
:class:`numpy.random.Generator` with a uniform seeding policy: an integer
seed, an existing generator, or ``None`` (fresh OS entropy — only
appropriate for interactive use).
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a deterministic stream, or an
        existing :class:`~numpy.random.Generator` which is returned unchanged
        (so library functions can accept either seeds or generators).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

