"""Runtime conservation sanitizer (the dynamic half of ``repro.lint``).

:mod:`repro.sanitize.hooks` is the import-cycle-free activation surface
the core calls into; :mod:`repro.sanitize.checks` holds the actual
conservation checks.  Every fault suite runs under its own scoped
sanitizer (:func:`repro.faults.soak.run_soak` and
:func:`repro.faults.fleet.run_campaign`, ``repro faults run``), and
``REPRO_SANITIZE=1`` arms the same checkpoints in any other run.
"""

from repro.sanitize.checks import Sanitizer, SanitizeViolation
from repro.sanitize.hooks import (
    NULL_SANITIZER,
    SanitizerHook,
    get_sanitizer,
    set_sanitizer,
    use_sanitizer,
)

__all__ = [
    "SanitizeViolation",
    "Sanitizer",
    "SanitizerHook",
    "NULL_SANITIZER",
    "get_sanitizer",
    "set_sanitizer",
    "use_sanitizer",
]
