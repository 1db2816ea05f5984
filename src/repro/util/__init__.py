"""Shared utilities: seeded RNG plumbing, table rendering, validation.

Every stochastic component of the reproduction draws from a
:class:`numpy.random.Generator` created through :func:`make_rng`, so that
every experiment in the paper reproduction is bit-for-bit deterministic.
"""

from repro.util.rng import make_rng
from repro.util.tables import format_table, format_series
from repro.util.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_type,
)

__all__ = [
    "make_rng",
    "format_table",
    "format_series",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_type",
]
