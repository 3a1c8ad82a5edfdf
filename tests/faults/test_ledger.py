"""Unit tests for the token ledger, drain checks, and mutation smoke."""

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.faults import FaultPlan, InvariantViolation, TokenLedger
from repro.graph import web_graph


class TestTokenLedger:
    def test_conservation_through_lifecycle(self):
        ledger = TokenLedger()
        scope = ("pe", 0)
        ledger.issue(scope, 7)
        ledger.issue(scope, 9)
        assert ledger.in_flight(scope) == 2
        ledger.retire(scope, 7)
        ledger.assert_conserved()
        assert ledger.in_flight(scope) == 1
        ledger.retire(scope, 9)
        ledger.assert_drained()
        assert ledger.violations == 0

    def test_unknown_token_raises_at_verify(self):
        ledger = TokenLedger()
        ledger.issue(("pe", 0), 7)
        with pytest.raises(InvariantViolation) as excinfo:
            ledger.verify(("pe", 0), 8)
        assert excinfo.value.details["token"] == 8
        assert ledger.violations == 1

    def test_unknown_scope_raises(self):
        ledger = TokenLedger()
        with pytest.raises(InvariantViolation):
            ledger.retire(("bank", "shared0"), 1)

    def test_multiset_tokens_retire_one_at_a_time(self):
        """Unweighted PEs reuse dst offsets as IDs: tokens are a multiset."""
        ledger = TokenLedger()
        scope = ("pe", 1)
        ledger.issue(scope, 5)
        ledger.issue(scope, 5)
        ledger.retire(scope, 5)
        assert ledger.in_flight(scope) == 1
        ledger.retire(scope, 5)
        with pytest.raises(InvariantViolation):
            ledger.retire(scope, 5)

    def test_drain_check_reports_leaked_tokens(self):
        ledger = TokenLedger()
        ledger.issue(("bank", "shared0"), 0x40)
        with pytest.raises(InvariantViolation) as excinfo:
            ledger.assert_drained("end of iteration 1")
        assert "end of iteration 1" in str(excinfo.value)
        assert ("bank", "shared0") in excinfo.value.details["leaks"]

    def test_snapshot_counts(self):
        ledger = TokenLedger()
        ledger.issue(("dram", "ch0"), 64)
        snap = ledger.snapshot()
        assert snap[repr(("dram", "ch0"))] == {
            "issued": 1, "retired": 0, "in_flight": 1,
        }


def _small_system(algorithm, **kwargs):
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    graph = web_graph(600, 3000, seed=9)
    return AcceleratorSystem(graph, algorithm, config, **kwargs)


class TestSystemChecks:
    def test_checked_run_matches_unchecked(self):
        """Ledger + watchdog + drain checks must not change results."""
        baseline = _small_system("bfs").run()
        checked_system = _small_system("bfs", checks=True)
        checked = checked_system.run()
        assert checked.cycles == baseline.cycles
        assert (checked.values == baseline.values).all()
        # The ledger actually saw traffic (not a vacuous pass).
        assert checked_system.ledger.in_flight() == 0
        assert any(
            scope["issued"] > 0
            for scope in checked_system.ledger.snapshot().values()
        )

    def test_drain_checks_run_only_under_a_ledger(self, monkeypatch):
        """An unchecked run never pays for the end-of-iteration drain
        check, and the check itself runs with no ledger attached."""
        contexts = []
        monkeypatch.setattr("repro.faults.check_drained",
                            lambda system, context: contexts.append(context))
        system = _small_system("bfs")
        system.run()
        assert contexts == []
        system._check_iteration_drained(1)
        assert contexts == ["end of iteration 1"]

    def test_mutation_smoke_is_caught_by_ledger(self):
        """A corrupted response ID must die in the ledger, not corrupt."""
        system = _small_system(
            "bfs", checks=True, fault_plan=FaultPlan.mutation_plan(at=30),
        )
        with pytest.raises(InvariantViolation) as excinfo:
            system.run()
        assert "never issued" in str(excinfo.value)
        assert system.fault_state.stats["mutations"] == 1

    def test_mutation_without_checks_would_crash_differently(self):
        """Without the ledger the corruption surfaces late (or not at all):
        the flipped ID indexes nothing, so the PE-side lookup misbehaves.
        This pins why verify-at-peek matters."""
        system = _small_system(
            "bfs", fault_plan=FaultPlan.mutation_plan(at=30),
        )
        with pytest.raises(Exception) as excinfo:
            system.run()
        assert not isinstance(excinfo.value, InvariantViolation)
