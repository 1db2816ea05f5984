"""Library logging: one logger per module under the ``repro`` namespace.

Every long-running component (the reallocator, the coupled driver, the
experiment runner) logs through :func:`get_logger`, which returns
``logging.getLogger("repro.<module>")``.  The library never configures
handlers, levels or formats: an application that wants the records
attaches its own handler to the ``repro`` logger.
"""

from __future__ import annotations

import logging

__all__ = ["get_logger"]


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace (idempotent)."""
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)
