"""Scenarios: the cloud-birth script of the paper's real workload.

*Real-like* (§V-B "Real"): a Mumbai-July-2005-style episode over the Indian
region — a persistent intense west-coast system (the record Mumbai rainfall
cell) plus monsoon-depression systems appearing and decaying across the Bay
of Bengal and central India.  Tuned so that PDA detects 4–5 simultaneous
regions of interest on average, at most 7, over ~100 adaptation points —
the statistics the paper reports for its real traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.rng import make_rng
from repro.wrf.clouds import CloudSystem, random_system
from repro.wrf.model import DomainConfig

__all__ = ["Scenario", "mumbai_2005_scenario"]


@dataclass
class Scenario:
    """A birth schedule bound to a domain configuration."""

    config: DomainConfig
    initial_systems: list[CloudSystem]
    n_steps: int
    _birth_fn: object = field(repr=False, default=None)

    def birth_fn(self, step: int, systems: list[CloudSystem]) -> list[CloudSystem]:
        if self._birth_fn is None:
            return []
        return self._birth_fn(step, systems)  # type: ignore[operator]


def mumbai_2005_scenario(
    seed: int = 2005, n_steps: int = 100, config: DomainConfig | None = None
) -> Scenario:
    """The real-trace-like episode (July 24–27 2005 Mumbai rainfall).

    One quasi-stationary intense system near the Mumbai coast persists
    through the episode (re-seeded as it decays); 3–6 companion monsoon
    systems churn over the Bay of Bengal and central India.
    """
    config = config or DomainConfig()
    rng = make_rng(seed)
    nx, ny = config.nx, config.ny
    # System sizes scale with the domain so small test domains still host
    # several distinct organised systems (the reference domain is 552x324).
    scale = min(nx / 552.0, ny / 324.0)
    # Mumbai (~72.8E, 19N) in grid coordinates of the 60-120E / 5-40N domain.
    mumbai_x, mumbai_y = nx * (72.8 - 60.0) / 60.0, ny * (40.0 - 19.0) / 35.0

    def mumbai_cell(sid: int, age: int = 0) -> CloudSystem:
        return CloudSystem(
            system_id=sid,
            x=mumbai_x + float(rng.normal(0, 3.0 * scale)),
            y=mumbai_y + float(rng.normal(0, 3.0 * scale)),
            sigma_x=float(rng.uniform(18, 26)) * scale,
            sigma_y=float(rng.uniform(18, 26)) * scale,
            peak=float(rng.uniform(1.8e-3, 2.6e-3)),
            vx=float(rng.normal(0.0, 0.15)),
            vy=float(rng.normal(0.0, 0.15)),
            lifetime=int(rng.integers(25, 45)),
            age=age,
        )

    counter = [1000]

    def fresh_id() -> int:
        counter[0] += 1
        return counter[0]

    sigma_range = (12.0 * scale, 32.0 * scale)
    initial = [mumbai_cell(fresh_id(), age=2)]
    for _ in range(4):
        initial.append(
            random_system(
                rng, fresh_id(), nx, ny,
                sigma_range=sigma_range, lifetime_range=(15, 45),
            )
        )

    target_mean = 4.5

    def births(step: int, systems: list[CloudSystem]) -> list[CloudSystem]:
        born: list[CloudSystem] = []
        # Keep the Mumbai cell alive through the whole episode.
        if not any(s.x - 40 < mumbai_x < s.x + 40 and s.alive for s in systems):
            born.append(mumbai_cell(fresh_id()))
        # Poisson births pulling the population toward the target mean,
        # capped so PDA sees at most ~7 regions.
        alive = len(systems) + len(born)
        if alive < 7:
            rate = max(0.05, 0.35 * (target_mean - alive) / target_mean + 0.15)
            n_new = int(rng.poisson(rate))
            for _ in range(min(n_new, 7 - alive)):
                born.append(
                    random_system(
                        rng, fresh_id(), nx, ny,
                        sigma_range=sigma_range, lifetime_range=(12, 40),
                    )
                )
        return born

    return Scenario(config=config, initial_systems=initial, n_steps=n_steps, _birth_fn=births)

