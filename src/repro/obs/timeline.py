"""Per-adaptation-point queries over a recorder's spans.

The experiment runner wraps every adaptation point in one umbrella
:data:`ADAPTATION_SPAN` span and *binds* the step index and strategy
name as ambient tags — every nested span (strategy edit, layout,
transfer matrices, network simulation, data plane) then carries
``step``/``strategy`` tags without the hot paths knowing about steps at
all.  The queries below slice the spans still in the ring back into the
per-step phase breakdowns the paper's Fig. 10–12 arguments are made of,
and let tests cross-check :class:`~repro.core.metrics.StepMetrics`
against observed phase times.
"""

from __future__ import annotations

from repro.obs.recorder import FlightRecorder, SpanRecord

__all__ = [
    "ADAPTATION_SPAN",
    "per_step_phase_times",
    "phase_totals",
    "spans_with_tag",
]

#: name of the umbrella span opened around each adaptation point
ADAPTATION_SPAN = "adaptation_point"


def spans_with_tag(recorder: FlightRecorder, key: str) -> list[SpanRecord]:
    """Every recorded span carrying tag ``key``."""
    return [s for s in recorder.spans if key in s.tags]


def per_step_phase_times(
    recorder: FlightRecorder,
) -> dict[int, dict[str, float]]:
    """``{step: {span name: summed seconds}}`` over all step-tagged spans."""
    out: dict[int, dict[str, float]] = {}
    for span in recorder.spans:
        step = span.tags.get("step")
        if not isinstance(step, int):
            continue
        phases = out.setdefault(step, {})
        phases[span.name] = phases.get(span.name, 0.0) + span.duration
    return out


def phase_totals(recorder: FlightRecorder) -> dict[str, float]:
    """``{span name: summed seconds}`` across the whole recording."""
    out: dict[str, float] = {}
    for span in recorder.spans:
        out[span.name] = out.get(span.name, 0.0) + span.duration
    return out
