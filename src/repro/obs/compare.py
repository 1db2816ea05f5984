"""Baseline comparison for ``repro bench --compare`` — the regression gate.

A saved baseline (``BENCH_baseline.json``) is only useful if something
*diffs* against it.  :func:`compare_bench` takes two bench documents (the
dict form produced by :meth:`~repro.obs.bench.BenchResult.to_dict`) and
computes a per-phase verdict on the **medians** — the median is the
suite's most noise-resistant statistic, and a regression must clear both
a *relative* threshold and an *absolute* floor:

    regressed  ⇔  current > baseline × threshold  AND
                  current − baseline > abs_floor

The relative threshold absorbs scheduler jitter on slow phases; the
absolute floor stops microsecond-scale phases (e.g. ``tree.scratch``)
from tripping the gate on pure timer noise.  Comparisons are refused
outright (exit code 2) when the two documents are not like-for-like:
different quick/full mode, machine preset, repeat count, or an unknown
schema.

The whole module is pure functions over plain dicts, so the regression
gate is testable with injected timings — no sleeps, no real benchmarks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "DEFAULT_THRESHOLD",
    "DEFAULT_ABS_FLOOR",
    "PhaseDelta",
    "BenchComparison",
    "load_bench_json",
    "compare_bench",
    "format_comparison",
]

#: default relative threshold: current median must exceed 2× baseline
DEFAULT_THRESHOLD = 2.0
#: default absolute floor in seconds: and be at least 5 ms slower
DEFAULT_ABS_FLOOR = 0.005

#: schemas this comparator understands (2 added machine/git_describe)
_KNOWN_SCHEMAS = (1, 2)


@dataclass(frozen=True)
class PhaseDelta:
    """One phase's baseline-vs-current verdict (times in seconds)."""

    name: str
    baseline_median: float
    current_median: float
    threshold: float
    abs_floor: float

    @property
    def delta(self) -> float:
        """Absolute median change (positive = slower)."""
        return self.current_median - self.baseline_median

    @property
    def ratio(self) -> float:
        """current / baseline median (inf when the baseline was zero)."""
        if self.baseline_median == 0:
            return float("inf") if self.current_median > 0 else 1.0
        return self.current_median / self.baseline_median

    @property
    def regressed(self) -> bool:
        return (
            self.current_median > self.baseline_median * self.threshold
            and self.delta > self.abs_floor
        )

    @property
    def status(self) -> str:
        if self.regressed:
            return "REGRESSED"
        if self.ratio < 1.0 / self.threshold and -self.delta > self.abs_floor:
            return "improved"
        return "ok"


@dataclass(frozen=True)
class BenchComparison:
    """Everything ``repro bench --compare`` needs to render and exit."""

    deltas: tuple[PhaseDelta, ...]
    mismatches: tuple[str, ...]  # like-for-like violations; non-empty ⇒ refuse
    missing_phases: tuple[str, ...]  # in baseline but not in the current run
    new_phases: tuple[str, ...]  # in the current run but not in the baseline

    @property
    def regressions(self) -> tuple[PhaseDelta, ...]:
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.regressions

    @property
    def exit_code(self) -> int:
        """0 clean, 1 regression(s), 2 not like-for-like."""
        if self.mismatches:
            return 2
        return 1 if self.regressions else 0


def load_bench_json(path: str | Path) -> dict[str, object]:
    """Load and shape-check one bench JSON document."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: bench document is not a JSON object")
    if doc.get("suite") != "repro-bench":
        raise ValueError(f"{path}: not a repro-bench document (suite={doc.get('suite')!r})")
    if doc.get("schema") not in _KNOWN_SCHEMAS:
        raise ValueError(
            f"{path}: unknown bench schema {doc.get('schema')!r}; known: {_KNOWN_SCHEMAS}"
        )
    if not isinstance(doc.get("phases"), dict):
        raise ValueError(f"{path}: bench document has no phases mapping")
    return doc


def _median_of(doc: dict[str, object], name: str) -> float:
    phases = doc["phases"]
    assert isinstance(phases, dict)
    stats = phases[name]
    if not isinstance(stats, dict) or "median_s" not in stats:
        raise ValueError(f"phase {name!r}: missing median_s")
    return float(stats["median_s"])


def compare_bench(
    baseline: dict[str, object],
    current: dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    abs_floor: float = DEFAULT_ABS_FLOOR,
) -> BenchComparison:
    """Compare two bench documents phase by phase.

    ``baseline`` and ``current`` are dicts as produced by
    :meth:`~repro.obs.bench.BenchResult.to_dict` (and saved by
    :func:`~repro.obs.bench.write_baseline`).  The like-for-like header
    check refuses to compare across quick/full modes or machine presets —
    those are different workloads, and a "regression" between them is
    meaningless — and across repeat counts, whose medians spread
    differently.
    """
    if threshold < 1.0:
        raise ValueError(f"threshold must be >= 1.0, got {threshold}")
    if abs_floor < 0.0:
        raise ValueError(f"abs_floor must be >= 0, got {abs_floor}")
    mismatches: list[str] = []
    if baseline.get("quick") != current.get("quick"):
        mismatches.append(
            f"quick mode differs: baseline={baseline.get('quick')} "
            f"current={current.get('quick')}"
        )
    base_machine = baseline.get("machine")
    cur_machine = current.get("machine")
    # schema-1 baselines carry no machine field; only flag a real conflict
    if base_machine is not None and cur_machine is not None and base_machine != cur_machine:
        mismatches.append(
            f"machine preset differs: baseline={base_machine!r} current={cur_machine!r}"
        )
    base_repeats = baseline.get("repeats")
    cur_repeats = current.get("repeats")
    if base_repeats is not None and cur_repeats is not None and base_repeats != cur_repeats:
        mismatches.append(
            f"repeat count differs: baseline={base_repeats} current={cur_repeats}"
        )

    base_phases = baseline["phases"]
    cur_phases = current["phases"]
    assert isinstance(base_phases, dict) and isinstance(cur_phases, dict)
    shared = sorted(set(base_phases) & set(cur_phases))
    missing = tuple(sorted(set(base_phases) - set(cur_phases)))
    new = tuple(sorted(set(cur_phases) - set(base_phases)))
    deltas = tuple(
        PhaseDelta(
            name=name,
            baseline_median=_median_of(baseline, name),
            current_median=_median_of(current, name),
            threshold=threshold,
            abs_floor=abs_floor,
        )
        for name in shared
    )
    return BenchComparison(
        deltas=deltas,
        mismatches=tuple(mismatches),
        missing_phases=missing,
        new_phases=new,
    )


def format_comparison(comparison: BenchComparison) -> str:
    """Human-readable per-phase delta table plus the verdict line."""
    from repro.util.tables import format_table

    parts: list[str] = []
    if comparison.mismatches:
        lines = "\n".join(f"  ! {m}" for m in comparison.mismatches)
        parts.append(
            "bench comparison refused — baselines are not like-for-like:\n" + lines
        )
    rows = [
        (
            d.name,
            f"{d.baseline_median * 1e3:10.3f}",
            f"{d.current_median * 1e3:10.3f}",
            f"{d.ratio:8.2f}x",
            f"{d.delta * 1e3:+10.3f}",
            d.status,
        )
        for d in comparison.deltas
    ]
    parts.append(
        format_table(
            ["phase", "baseline ms", "current ms", "ratio", "delta ms", "status"],
            rows,
            title="bench comparison (medians)",
        )
    )
    for label, names in (
        ("missing from current run", comparison.missing_phases),
        ("new (no baseline)", comparison.new_phases),
    ):
        if names:
            parts.append(f"{label}: {', '.join(names)}")
    if comparison.mismatches:
        verdict = "VERDICT: mismatch (exit 2)"
    elif comparison.regressions:
        names = ", ".join(d.name for d in comparison.regressions)
        verdict = f"VERDICT: REGRESSED ({names}) (exit 1)"
    else:
        verdict = "VERDICT: ok (exit 0)"
    parts.append(verdict)
    return "\n\n".join(parts)
