"""Tests for the runtime conservation sanitizer.

Three layers:

* activation — scoped > environment > disabled, with the env read
  cached once;
* unit checks — each checkpoint catches a hand-tampered object;
* end-to-end — the flagship Mumbai trace passes clean under the fault
  soak's always-armed sanitizer (``repro faults run --suite mumbai``),
  and an injected conservation bug (a block silently deleted from the
  data plane) is detected.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import Allocation, plan_redistribution
from repro.core.dataplane import RankStore, execute_redistribution, scatter_nest
from repro.core.redistribution import nest_moves
from repro.experiments.workloads import synthetic_workload
from repro.faults import SoakConfig, format_soak_report, run_soak
from repro.grid import ProcessorGrid
from repro.mpisim import CostModel, LinkLoadState, NetworkSimulator
from repro.mpisim.ledger import CommLedger
from repro.obs import FlightRecorder, use_recorder
from repro.sanitize import (
    NULL_SANITIZER,
    SanitizeError,
    Sanitizer,
    get_sanitizer,
    use_sanitizer,
)
from repro.sanitize import hooks as sanitize_hooks
from repro.topology import Torus3D, blue_gene_l, fist_cluster
from repro.tree import build_huffman


def run_fault_free(seed, n_steps, tamper=None):
    """A fault-free soak over the paper's synthetic churn (nests resize)."""
    config = SoakConfig(
        name="synthetic", seed=seed, n_steps=n_steps, n_crashes=0, n_flaky_steps=0
    )
    return run_soak(config, synthetic_workload(seed=seed, n_steps=n_steps), tamper=tamper)


# ---------------------------------------------------------------------------
# activation
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_env_cache():
    """Clear the one-slot REPRO_SANITIZE cache around a test."""
    saved = sanitize_hooks._ENV_CACHE[0]
    sanitize_hooks._ENV_CACHE[0] = None
    try:
        yield
    finally:
        sanitize_hooks._ENV_CACHE[0] = saved


class TestActivation:
    def test_disabled_by_default(self):
        assert get_sanitizer().enabled is False

    def test_scoped_activation_restores(self):
        san = Sanitizer()
        with use_sanitizer(san):
            assert get_sanitizer() is san
        assert get_sanitizer() is not san

    def test_env_activation_is_cached_once(self, monkeypatch, fresh_env_cache):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        first = get_sanitizer()
        assert first.enabled and isinstance(first, Sanitizer)
        # later env changes do not flip the cached resolution
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert get_sanitizer() is first

    def test_env_zero_stays_disabled(self, monkeypatch, fresh_env_cache):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert get_sanitizer() is NULL_SANITIZER

    def test_scoped_wins_over_environment(self, monkeypatch, fresh_env_cache):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        san = Sanitizer()
        with use_sanitizer(san):
            assert get_sanitizer() is san


# ---------------------------------------------------------------------------
# unit checks
# ---------------------------------------------------------------------------


class TestCheckpoints:
    def test_ledger_totals_catch_tampering(self):
        ledger = CommLedger(4)
        san = Sanitizer()
        san.check_ledger(ledger)
        assert san.ok  # empty ledger conserves trivially

        ledger.sent[0] += 1024.0  # sent without a matching receive
        san = Sanitizer()
        san.check_ledger(ledger)
        assert not san.ok
        assert any(v.check == "ledger.totals" for v in san.violations)

    def test_busiest_link_split_must_sum(self):
        san = Sanitizer()
        san.after_busiest_link(100.0, {(0, 1): 60.0, (1, 2): 40.0})
        assert san.ok
        san.after_busiest_link(100.0, {(0, 1): 60.0})
        assert any(v.check == "ledger.busiest_link" for v in san.violations)

    def test_pda_coverage_flags_inconsistency(self):
        ok = SimpleNamespace(
            coverage=1.0,
            low_olr_fraction=0.5,
            n_files_missing=0,
            n_files_corrupt=0,
            n_ranks_failed=0,
            partial=False,
        )
        san = Sanitizer()
        san.after_pda(ok)
        assert san.ok

        bad = SimpleNamespace(
            coverage=0.7,
            low_olr_fraction=0.5,
            n_files_missing=0,
            n_files_corrupt=0,
            n_ranks_failed=0,
            partial=False,  # claims complete but coverage < 1
        )
        san.after_pda(bad)
        assert any(v.check == "pda.coverage" for v in san.violations)

    def test_move_executed_into_another_allocation_is_flagged(self):
        grid = ProcessorGrid(4, 4)
        cost = CostModel.for_machine(fist_cluster(16))
        weights = [{1: 0.5, 2: 0.5}, {1: 0.75, 2: 0.25}, {1: 0.25, 2: 0.75}]
        old, planned, other = (
            Allocation.from_tree(build_huffman(w), grid, w) for w in weights
        )
        move = nest_moves(old, planned, {1: (20, 12), 2: (20, 12)}, cost)[0]
        field = np.arange(20 * 12, dtype=float).reshape(12, 20)
        for new, ok in ((planned, True), (other, False)):
            store = RankStore(grid.nprocs)
            scatter_nest(store, 1, field, old)
            execute_redistribution(store, move, old, new)
            san = Sanitizer()
            san.after_execute(store, move)
            assert san.ok is ok
            assert san.checks_run == {"execute.conservation": 1}
        # the store still tiles the nest; only the plan check sees the swap
        assert [v.check for v in san.violations] == ["execute.conservation"]
        assert "hold other than the plan sent them" in san.violations[0].message

    def test_link_state_charge_must_carry_the_hop_bytes(self, monkeypatch):
        machine = blue_gene_l(64)
        cost = CostModel.for_machine(machine)
        grid = ProcessorGrid(*machine.grid)
        weights = [{1: 0.5, 2: 0.5}, {1: 0.75, 2: 0.25}]
        old, new = (Allocation.from_tree(build_huffman(w), grid, w) for w in weights)
        sizes = {1: (40, 30), 2: (40, 30)}
        sim = NetworkSimulator(machine.mapping, cost)
        ring_link_loads = Torus3D.ring_link_loads

        def drop_one_link(self, src, dst, nbytes, order_idx=None):
            links, loads = ring_link_loads(self, src, dst, nbytes, order_idx)
            return links[1:], loads[1:]

        for tampered in (False, True):
            if tampered:
                monkeypatch.setattr(Torus3D, "ring_link_loads", drop_one_link)
            san = Sanitizer()
            with use_sanitizer(san):
                plan_redistribution(
                    old, new, sizes, machine, cost,
                    simulator=sim, link_state=LinkLoadState(sim),
                )
            assert san.ok is not tampered
            assert san.checks_run["linkstate.conservation"] == 1
        # increments and rebuild both lost the link and still agree; only
        # the hop-bytes identity sees the missing bytes
        assert san.violations
        assert all(v.check == "linkstate.conservation" for v in san.violations)
        assert all("hop-bytes" in v.message for v in san.violations)

    def test_strict_mode_raises_on_first_violation(self):
        san = Sanitizer(strict=True)
        with pytest.raises(SanitizeError):
            san.after_busiest_link(-1.0, {})

    def test_violations_reach_the_flight_recorder(self):
        flight = FlightRecorder()
        san = Sanitizer()
        with use_recorder(flight):
            san.after_busiest_link(-1.0, {})
        kinds = [e.kind for e in flight.events()]
        assert "sanitizer.violation" in kinds


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


class TestRunSanitized:
    @pytest.mark.parametrize(
        ("strategy", "expected"),
        [
            (
                "diffusion",
                {"linkstate.conservation": 11, "plan.conservation": 16,
                 "tree.invariants": 22},
            ),
            (
                "dynamic",
                {"linkstate.conservation": 11, "plan.conservation": 33,
                 "tree.invariants": 11},
            ),
            (
                "scratch",
                {"linkstate.conservation": 11, "plan.conservation": 16,
                 "tree.invariants": 11},
            ),
        ],
    )
    def test_audited_run_checks_every_candidate(self, strategy, expected):
        """Every move set a point makes is checked, and the audit makes
        each distinct one once.  Every point after the first checks its
        executed plan.  The dynamic strategy also costs both candidates
        by prediction alone and checks their moves: 11 plans + 22
        candidates over 12 points.  A scratch or diffusion run's audit
        costs only a candidate that differs from the applied allocation:
        11 plans + the 5 points where the other candidate differs."""
        from repro.core import DiffusionStrategy, ScratchStrategy
        from repro.experiments.runner import ExperimentContext, run_workload
        from repro.obs import AuditTrail
        from repro.topology import MACHINES

        context = ExperimentContext(MACHINES["bgl-256"], audit=AuditTrail())
        chosen = {
            "diffusion": DiffusionStrategy,
            "scratch": ScratchStrategy,
            "dynamic": context.make_dynamic_strategy,
        }[strategy]()
        sanitizer = Sanitizer()
        with use_sanitizer(sanitizer):
            run_workload(synthetic_workload(seed=0, n_steps=12), chosen, context)
        assert sanitizer.ok, [str(v) for v in sanitizer.violations[:5]]
        assert sanitizer.checks_run == expected

    def test_flagship_trace_passes_clean(self):
        config = SoakConfig(
            name="mumbai", seed=2005, n_steps=10, workload="mumbai",
            n_crashes=0, n_flaky_steps=0,
        )
        report = run_soak(config)
        assert report.ok, [str(v) for v in report.violations[:5]]
        # every checkpoint family fired, including PDA (the trace runs
        # the full analysis pipeline while being built)
        for check in (
            "plan.conservation",
            "execute.conservation",
            "scatter.tiling",
            "tree.invariants",
            "pda.coverage",
            "ledger.totals",
            "audit.tiling",
        ):
            assert report.checks_run.get(check, 0) > 0, check
        assert report.data_checks > 0 and report.data_failures == 0

    def test_injected_conservation_bug_detected(self):
        def tamper(store, step):
            if step == 6:  # silently lose one block late in the run
                for rank in sorted(store.blocks):
                    for nid in sorted(store.blocks[rank]):
                        del store.blocks[rank][nid]
                        return

        report = run_fault_free(7, 7, tamper=tamper)
        assert not report.ok
        checks = {v.check for v in report.violations}
        assert "audit.tiling" in checks  # points lost from the tiling
        assert "audit.data" in checks  # and the bits no longer match
        assert report.data_failures > 0

    def test_corrupted_block_values_detected_bit_for_bit(self):
        def tamper(store, step):
            if step == 5:
                for rank in sorted(store.blocks):
                    for nid, (block, _rect) in sorted(store.blocks[rank].items()):
                        block += 1e-12  # tiling intact, bits wrong
                        return

        report = run_fault_free(7, 6, tamper=tamper)
        assert not report.ok
        checks = {v.check for v in report.violations}
        assert checks == {"audit.data"}

    def test_report_formats_and_serializes(self):
        report = run_fault_free(3, 5)
        text = format_soak_report(report)
        assert "verdict" in text and "OK" in text and "audit.tiling" in text
        d = report.to_dict()
        assert d["ok"] is True and d["total_checks"] == report.total_checks

    def test_build_workload_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown soak workload"):
            SoakConfig(name="nope", workload="nope")

    def test_ground_truth_survives_resize_and_churn(self):
        # a longer synthetic soak of the runner itself: nests come, go
        # and resize; every step must stay conserved and bit-identical
        report = run_fault_free(11, 15)
        assert report.ok
        assert report.checks_run["audit.tiling"] == report.data_checks
