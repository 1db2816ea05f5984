"""Workloads: sequences of nest configurations fed to the strategies.

Two families, matching the paper's §V-B:

* **synthetic** — random insertion/deletion churn with 2–9 nests of
  181x181 … 361x361 fine points, 70 reconfiguration cases;
* **real-like (Mumbai 2005)** — produced by actually running the WRF-like
  substrate end-to-end (cloud fields → split files → PDA → NNC → ROIs →
  nest tracking), ~100 adaptation points with at most 7 nests — the full
  pipeline the paper ran, minus WRF itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.rng import make_rng
from repro.wrf.model import DomainConfig, WrfLikeModel
from repro.wrf.nests import NestTracker, detect_nests
from repro.wrf.scenario import mumbai_2005_scenario

__all__ = [
    "Workload",
    "synthetic_workload",
    "mumbai_trace_workload",
    "dynamical_trace_workload",
]

#: One adaptation point: nest id -> (nx, ny) fine-grid size.
StepConfig = dict[int, tuple[int, int]]


@dataclass(frozen=True)
class Workload:
    """A named sequence of nest configurations."""

    name: str
    steps: list[StepConfig]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a workload needs at least one step")

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def nest_counts(self) -> list[int]:
        return [len(s) for s in self.steps]


def synthetic_workload(
    seed: int = 0,
    n_steps: int = 70,
    n_range: tuple[int, int] = (2, 9),
    size_range: tuple[int, int] = (181, 361),
    delete_prob: float = 0.5,
    insert_prob: float = 0.55,
) -> Workload:
    """Random nest churn matching the paper's synthetic test cases.

    Per step roughly one random deletion and/or insertion occurs, keeping
    the nest count within ``n_range``; nest sizes are drawn uniformly from
    ``size_range`` (the paper's 181x181 … 361x361 fine points) and stay
    fixed for the nest's lifetime.
    """
    lo, hi = n_range
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid n_range {n_range}")
    if size_range[0] < 2 or size_range[0] > size_range[1]:
        raise ValueError(f"invalid size_range {size_range}")
    rng = make_rng(seed)

    def draw_size() -> tuple[int, int]:
        return (
            int(rng.integers(size_range[0], size_range[1] + 1)),
            int(rng.integers(size_range[0], size_range[1] + 1)),
        )

    nests: StepConfig = {}
    next_id = 0
    start = int(rng.integers(lo, min(hi, lo + 3) + 1))
    for _ in range(start):
        next_id += 1
        nests[next_id] = draw_size()
    steps: list[StepConfig] = []
    for _ in range(n_steps):
        if len(nests) > lo and rng.uniform() < delete_prob:
            victim = list(nests)[int(rng.integers(len(nests)))]
            del nests[victim]
        if len(nests) < hi and rng.uniform() < insert_prob:
            next_id += 1
            nests[next_id] = draw_size()
        steps.append(dict(nests))
    return Workload(
        name=f"synthetic(seed={seed})",
        steps=steps,
        metadata={"seed": seed, "n_range": n_range, "size_range": size_range},
    )


def mumbai_trace_workload(
    seed: int = 2005,
    n_steps: int = 100,
    config: DomainConfig | None = None,
    n_analysis: int = 64,
    roi_side_range: tuple[int, int] = (58, 120),
) -> Workload:
    """The real-like trace: run the full detection pipeline end to end.

    The WRF-like model advances the Mumbai-2005 scenario; at every
    adaptation point the split files go through the parallel data analysis
    (Algorithms 1–2) and the resulting ROIs through the nest tracker, which
    maintains nest identity.  The workload is the resulting per-step
    ``{nest_id: (nx, ny)}`` stream — the same artefact the paper's ~100
    real reconfigurations produced.
    """
    scenario = mumbai_2005_scenario(seed=seed, n_steps=n_steps, config=config)
    config = scenario.config
    model = WrfLikeModel(config, scenario.birth_fn, scenario.initial_systems)
    tracker = NestTracker(refinement=config.nest_refinement)
    steps: list[StepConfig] = []
    roi_counts: list[int] = []
    for _ in range(n_steps):
        model.step()
        found = detect_nests(model, tracker, n_analysis, roi_side_range)
        roi_counts.append(len(found.rois))
        steps.append(found.nests)
    # Keep only non-empty steps: the paper's runs always had an active region
    # (an empty step would run too; every strategy returns the empty allocation).
    non_empty = [s for s in steps if s]
    return Workload(
        name=f"mumbai-2005(seed={seed})",
        steps=non_empty,
        metadata={
            "seed": seed,
            "roi_counts": roi_counts,
            "dropped_empty_steps": len(steps) - len(non_empty),
        },
    )


def dynamical_trace_workload(
    seed: int = 0,
    n_steps: int = 60,
    config: DomainConfig | None = None,
    n_analysis: int = 64,
    roi_side_range: tuple[int, int] = (58, 120),
    spinup: int = 8,
) -> Workload:
    """A trace from the *dynamical* moisture model (emergent convection).

    Unlike :func:`mumbai_trace_workload` (kinematic Gaussian systems on
    scripted tracks), the nest churn here emerges from an
    advection–condensation solver: convective systems flare where moist
    flow crosses unstable pockets, drift with the monsoon jet + cyclone,
    and rain themselves out.  The paper notes its algorithms "are quite
    generic"; this workload exercises them on a second, independent
    weather substrate.
    """
    from repro.wrf.dynamics import DynamicalModel

    config = config or DomainConfig()
    model = DynamicalModel(config, seed=seed)
    for _ in range(max(0, spinup)):
        model.step()
    tracker = NestTracker(refinement=config.nest_refinement)
    steps: list[StepConfig] = []
    for _ in range(n_steps):
        model.step()
        found = detect_nests(model, tracker, n_analysis, roi_side_range)
        steps.append(found.nests)
    non_empty = [s for s in steps if s]
    if not non_empty:
        raise RuntimeError(
            "the dynamical model produced no detectable systems; "
            "increase n_steps/spinup or loosen the PDA thresholds"
        )
    return Workload(
        name=f"dynamical(seed={seed})",
        steps=non_empty,
        metadata={"seed": seed, "dropped_empty_steps": len(steps) - len(non_empty)},
    )

