"""JSON/CSV serialisation of workloads and run results."""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib

from repro.core.metrics import StepMetrics
from repro.experiments.workloads import Workload

__all__ = [
    "save_workload",
    "load_workload",
    "save_run",
    "metrics_to_csv",
]

_WORKLOAD_FORMAT = 1
_RUN_FORMAT = 1


def _to_path(path: str | pathlib.Path) -> pathlib.Path:
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def save_workload(workload: Workload, path: str | pathlib.Path) -> None:
    """Write a workload to JSON (nest ids and sizes, step by step)."""
    doc = {
        "format": _WORKLOAD_FORMAT,
        "name": workload.name,
        "metadata": _jsonable(workload.metadata),
        "steps": [
            {str(nid): list(size) for nid, size in step.items()}
            for step in workload.steps
        ],
    }
    _to_path(path).write_text(json.dumps(doc, indent=1))


def load_workload(path: str | pathlib.Path) -> Workload:
    """Read a workload written by :func:`save_workload`."""
    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("format") != _WORKLOAD_FORMAT:
        raise ValueError(
            f"unsupported workload format {doc.get('format')!r} in {path}"
        )
    steps = [
        {int(nid): (int(size[0]), int(size[1])) for nid, size in step.items()}
        for step in doc["steps"]
    ]
    return Workload(name=doc["name"], steps=steps, metadata=doc.get("metadata", {}))


def _jsonable(obj):
    """Best-effort conversion of metadata values to JSON-safe types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def save_run(
    metrics: list[StepMetrics],
    path: str | pathlib.Path,
    workload: str = "",
    strategy: str = "",
    machine: str = "",
) -> None:
    """Write a run's per-step metrics (plus identifying labels) to JSON."""
    doc = {
        "format": _RUN_FORMAT,
        "workload": workload,
        "strategy": strategy,
        "machine": machine,
        "metrics": [dataclasses.asdict(m) for m in metrics],
    }
    _to_path(path).write_text(json.dumps(doc, indent=1))


def metrics_to_csv(metrics: list[StepMetrics], path: str | pathlib.Path) -> None:
    """Write per-step metrics as a flat CSV (one row per adaptation point)."""
    fields = [f.name for f in dataclasses.fields(StepMetrics)]
    with open(_to_path(path), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for m in metrics:
            writer.writerow(dataclasses.asdict(m))

