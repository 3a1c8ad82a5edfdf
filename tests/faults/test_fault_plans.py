"""System-level fault injection: graceful degradation, never corruption.

BFS and SCC are integer fixpoint algorithms whose converged values are
independent of timing and response order, so every named fault plan
must reproduce the no-fault values *bit-identically* -- any divergence
means a token was lost, duplicated, or misrouted.  The ledger checks
run throughout, and each plan must have engaged: a plan whose windows
never fired proves nothing.
"""

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.faults import FaultPlan
from repro.faults.plan import NAMED_PLANS, FaultController, FaultState, Window
from repro.graph import web_graph

from tests.core.test_bank import BankHarness

_ENGAGEMENT = {
    "dram": ("latency_spiked_requests", "reorders", "blackout_cycles_entered"),
    "channel": ("backpressure_windows",),
    "mshr": ("mshr_forced_failures",),
}


def _system(algorithm, **kwargs):
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    graph = web_graph(600, 3000, seed=9)
    return AcceleratorSystem(graph, algorithm, config, **kwargs)


@pytest.fixture(scope="module")
def baselines():
    return {algorithm: _system(algorithm).run()
            for algorithm in ("bfs", "scc")}


@pytest.fixture(scope="module")
def bfs_baseline(baselines):
    return baselines["bfs"]


def _assert_recovers(algorithm, plan_name, baseline):
    system = _system(
        algorithm, checks=True, fault_plan=NAMED_PLANS[plan_name](),
    )
    result = system.run()
    stats = system.fault_state.stats
    assert any(stats[key] for key in _ENGAGEMENT[plan_name]), stats
    assert (result.values == baseline.values).all()
    return stats


class TestFaultPlans:
    @pytest.mark.parametrize("plan_name", sorted(NAMED_PLANS))
    def test_bfs_recovers_bit_identically(self, plan_name, baselines):
        _assert_recovers("bfs", plan_name, baselines["bfs"])

    def test_scc_recovers_under_dram_faults(self, baselines):
        stats = _assert_recovers("scc", "dram", baselines["scc"])
        assert stats["latency_spiked_requests"] > 0

    @pytest.mark.parametrize(
        "plan_name", sorted(set(NAMED_PLANS) - {"dram"}),  # dram: above
    )
    def test_scc_recovers_bit_identically(self, plan_name, baselines):
        _assert_recovers("scc", plan_name, baselines["scc"])

    def test_faults_cost_cycles(self, bfs_baseline):
        """Degradation is visible: the dram plan slows the run down."""
        result = _system("bfs", fault_plan=FaultPlan.dram_plan()).run()
        assert result.cycles > bfs_baseline.cycles

    def test_plans_are_deterministic(self):
        """Same plan, same workload -> same cycle count, twice."""
        first = _system("bfs", fault_plan=FaultPlan.channel_plan()).run()
        second = _system("bfs", fault_plan=FaultPlan.channel_plan()).run()
        assert first.cycles == second.cycles
        assert (first.values == second.values).all()


class TestMshrWindowBoundary:
    def test_traditional_bank_retries_on_the_closing_cycle(self):
        """An associative bank sleeps through a forced-full window and
        re-attempts its insert on the window's closing cycle itself,
        the first cycle at which the insert can pass."""
        harness = BankHarness(latency=10, associative_mshrs=True,
                              n_mshrs=16, n_subentries=16 * 8,
                              subentries_per_mshr=8)
        engine, bank = harness.engine, harness.bank
        window = Window(1000, 50, phase=0)
        state = FaultState(FaultPlan(mshr_full=window), engine)
        bank.mshrs._fault = state
        engine.add_component(FaultController(state, [], [bank]))
        harness.request(addr=0x40, req_id=1)
        engine.run(done=lambda: bank.mshrs.stats.inserts > 0,
                   max_cycles=200)
        assert bank.mshrs.stats.insert_failures == 1  # stalled in-window
        assert state.stats["mshr_forced_failures"] == 1
        # The successful insert ran on cycle 50 = next_boundary(0).
        assert engine.now - 1 == window.next_boundary(0) == 50
