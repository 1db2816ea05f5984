"""Tests for the coupled end-to-end simulation driver."""

import numpy as np
import pytest

from repro.core import ScratchStrategy
from repro.core.dataplane import gather_nest
from repro.grid import ProcessorGrid
from repro.topology import blue_gene_l
from repro.util.rng import make_rng
from repro.wrf import CoupledSimulation, DomainConfig, mumbai_2005_scenario
from repro.wrf.clouds import random_system
from repro.wrf.fields import qcloud_field
from repro.wrf.scenario import Scenario


def small_sim(**kwargs):
    cfg = DomainConfig(nx=128, ny=96, sim_grid=ProcessorGrid(8, 8))
    scenario = mumbai_2005_scenario(seed=11, n_steps=50, config=cfg)
    return CoupledSimulation(
        machine=blue_gene_l(256),
        scenario=scenario,
        n_analysis=16,
        roi_side_range=(12, 40),
        **kwargs,
    )


class TestCoupledSimulation:
    def test_runs_and_verifies(self):
        sim = small_sim()
        results = sim.run(8)
        assert len(results) == 8
        # at least one step moved data and verified it intact
        moved = [r for r in results if r.moved_bytes > 0]
        assert moved, "no redistribution happened in 8 steps"
        assert any(r.verified_nests for r in moved)

    def test_payload_matches_store_after_run(self):
        sim = small_sim()
        sim.run(6)
        for nid, (nx, ny) in sim.reallocator.nest_sizes.items():
            # every live nest's blocks reassemble into a full field
            f = gather_nest(sim.store, nid, nx, ny)
            assert f.shape == (ny, nx)
            assert np.isfinite(f).all()

    def test_store_holds_only_live_nests(self):
        sim = small_sim()
        sim.run(10)
        live = set(sim.tracker.live)
        assert set(sim.store.nests) == live

    def test_blocks_on_allocated_ranks(self):
        sim = small_sim()
        sim.run(5)
        alloc = sim.reallocator.allocation
        if alloc is None or alloc.is_empty:
            pytest.skip("no live nests this seed")
        for nid in alloc.nest_ids:
            holders = set(sim.store.holders(nid))
            expected = set(sim.reallocator.grid.ranks_in(alloc.rect_of(nid)).tolist())
            assert holders == expected

    def test_memory_accounting_positive(self):
        sim = small_sim()
        sim.run(4)
        if sim.tracker.live:
            assert sim.total_nest_memory() > 0

    def test_verification_can_be_disabled(self):
        sim = small_sim(verify_data=False)
        results = sim.run(6)
        assert all(r.verified_nests == [] for r in results)

    def test_scratch_strategy_works_too(self):
        sim = small_sim(strategy=ScratchStrategy())
        results = sim.run(6)
        assert any(r.reallocation is not None for r in results)

    def test_step_results_consistent(self):
        sim = small_sim()
        for r in sim.run(6):
            assert set(r.retained) | set(r.spawned) == set(
                sim.tracker.live
            ) or r.step < sim.step_count  # only the last step reflects live
            assert not (set(r.spawned) & set(r.deleted))

    def test_run_validation(self):
        with pytest.raises(ValueError):
            small_sim().run(-1)

    def test_synthetic_scenario_driver(self):
        # any scenario drives the loop, not only Mumbai's script: here
        # random systems with no births
        cfg = DomainConfig(nx=128, ny=96, sim_grid=ProcessorGrid(8, 8))
        rng = make_rng(5)
        systems = [
            random_system(rng, i, cfg.nx, cfg.ny, sigma_range=(3.0, 7.5))
            for i in range(1, 5)
        ]
        scenario = Scenario(config=cfg, initial_systems=systems, n_steps=30)
        sim = CoupledSimulation(
            machine=blue_gene_l(256),
            scenario=scenario,
            n_analysis=16,
            roi_side_range=(12, 40),
        )
        results = sim.run(6)
        assert len(results) == 6


class TestOneFieldSynthesisPerStep:
    def test_spawns_and_regrids_reuse_the_steps_fields(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return qcloud_field(*args, **kwargs)

        monkeypatch.setattr("repro.wrf.model.qcloud_field", counted)
        sim = small_sim()
        spawned = regridded = 0
        for _ in range(12):
            before = dict(sim.reallocator.nest_sizes)
            calls.clear()
            r = sim.step()
            now = sim.reallocator.nest_sizes
            assert len(calls) == 1
            spawned += len(r.spawned)
            regridded += sum(before[n] != now[n] for n in r.reallocation.retained)
        # the payload source ran for new nests and for resized ones
        assert spawned and regridded
