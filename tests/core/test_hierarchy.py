"""Integration tests for the four memory-hierarchy organizations."""

import numpy as np
import pytest

from repro.core import build_hierarchy
from repro.fabric import AWS_F1_FLOORPLAN
from repro.fabric.design import (
    MOMS_PRIVATE,
    MOMS_SHARED,
    MOMS_TRADITIONAL,
    MOMS_TWO_LEVEL,
    DesignDescription,
)
from repro.mem import DramTimings, MemorySystem
from repro.sim import Component, Engine, MomsRequest


class RequestDriver(Component):
    """Stands in for a PE: issues a scripted address list, collects data."""

    def __init__(self, pe_index, req_port, resp_port, addrs):
        self.pe_index = pe_index
        self.req_port = req_port
        self.resp_port = resp_port
        self.to_send = list(enumerate(addrs))
        self.responses = []
        resp_port.subscribe_data(self)

    def tick(self, engine):
        if self.to_send and self.req_port.can_push():
            i, addr = self.to_send.pop(0)
            self.req_port.push(
                MomsRequest(addr=addr, size=4, req_id=(self.pe_index, i),
                            port=self.pe_index)
            )
        if self.to_send:
            self.req_port.request_space_wake(self)
        while self.resp_port.can_pop():
            self.responses.append(self.resp_port.pop())

    def is_idle(self):
        return not self.to_send


class HierarchyHarness:
    def __init__(self, organization, n_pes=4, n_banks=4, n_channels=2,
                 floorplan=None, latency=30, **design_overrides):
        self.engine = Engine()
        self.mem = MemorySystem(
            self.engine, 1 << 18, n_channels=n_channels,
            timings=DramTimings(latency=latency),
        )
        words = self.mem.view_u32(0, (1 << 18) // 4)
        words[:] = np.arange(len(words), dtype=np.uint32)
        design = DesignDescription(
            n_pes=n_pes,
            n_banks=n_banks,
            organization=organization,
            n_channels=n_channels,
            **design_overrides,
        )
        self.hierarchy = build_hierarchy(
            self.engine, self.mem, design, scale=1 / 64,
            floorplan=floorplan,
        )
        self.drivers = []

    def drive(self, per_pe_addrs):
        for pe, addrs in enumerate(per_pe_addrs):
            driver = RequestDriver(
                pe,
                self.hierarchy.pe_req_ports[pe],
                self.hierarchy.pe_resp_ports[pe],
                addrs,
            )
            self.engine.add_component(driver)
            self.drivers.append(driver)

    def run(self, max_cycles=200_000):
        totals = [len(d.to_send) for d in self.drivers]
        self.engine.run(
            done=lambda: all(
                not d.to_send and len(d.responses) == t
                for d, t in zip(self.drivers, totals)
            ),
            max_cycles=max_cycles,
        )

    def check_all_correct(self):
        for driver in self.drivers:
            assert driver.responses, "driver received nothing"
            for resp in driver.responses:
                value = int(np.frombuffer(resp.data.tobytes(),
                                          dtype=np.uint32)[0])
                assert value == resp.addr // 4, (
                    f"wrong data for addr {resp.addr:#x}"
                )
                assert resp.port == driver.pe_index

    def dram_single_lines(self):
        return sum(ch.stats.lines_single for ch in self.mem.channels)


ALL_ORGS = [MOMS_SHARED, MOMS_PRIVATE, MOMS_TWO_LEVEL, MOMS_TRADITIONAL]


class TestAllOrganizations:
    @pytest.mark.parametrize("organization", ALL_ORGS)
    def test_serves_scattered_requests_correctly(self, organization):
        h = HierarchyHarness(organization)
        rng = np.random.default_rng(7)
        addrs = [
            [int(a) * 4 for a in rng.integers(0, 1 << 14, size=40)]
            for _ in range(4)
        ]
        h.drive(addrs)
        h.run()
        h.check_all_correct()
        assert h.hierarchy.total_requests() == 160

    @pytest.mark.parametrize("organization", ALL_ORGS)
    def test_with_floorplan_crossings(self, organization):
        h = HierarchyHarness(organization, floorplan=AWS_F1_FLOORPLAN,
                             n_channels=2)
        addrs = [[(pe * 64 + i) * 4 for i in range(20)] for pe in range(4)]
        h.drive(addrs)
        h.run()
        h.check_all_correct()


class TestCoalescing:
    def test_shared_coalesces_across_pes(self):
        """All PEs hammer one line: one DRAM fetch suffices."""
        h = HierarchyHarness(MOMS_SHARED, latency=100)
        h.drive([[0, 4, 8, 12] for _ in range(4)])
        h.run()
        h.check_all_correct()
        assert h.dram_single_lines() == 1

    def test_private_cannot_coalesce_across_pes(self):
        """Private MOMSes each fetch the hot line: 4 DRAM fetches."""
        h = HierarchyHarness(MOMS_PRIVATE, latency=100)
        h.drive([[0, 4, 8, 12] for _ in range(4)])
        h.run()
        h.check_all_correct()
        assert h.dram_single_lines() == 4

    def test_two_level_coalesces_at_shared_level(self):
        """Two-level: private misses meet in the shared MOMS."""
        h = HierarchyHarness(MOMS_TWO_LEVEL, latency=100)
        h.drive([[0, 4, 8, 12] for _ in range(4)])
        h.run()
        h.check_all_correct()
        assert h.dram_single_lines() == 1

    def test_private_level_coalesces_within_pe(self):
        """Repeated same-line requests from one PE: one L2 request."""
        h = HierarchyHarness(MOMS_TWO_LEVEL, latency=100)
        h.drive([[4 * i for i in range(16)], [], [], []])
        h.run()
        assert h.dram_single_lines() == 1
        l1 = h.hierarchy.private_banks[0]
        assert l1.stats.secondary_misses >= 10


class TestRouting:
    def test_bank_of_line_respects_channel_binding(self):
        h = HierarchyHarness(MOMS_SHARED, n_banks=4, n_channels=2)
        for line_addr in range(0, 4096, 7):
            bank = h.hierarchy.bank_of_line(line_addr)
            channel = h.mem.channel_of(line_addr * 64)
            banks_per_channel = 4 // 2
            assert bank // banks_per_channel == channel

    def test_banks_must_divide_channels(self):
        with pytest.raises(ValueError):
            HierarchyHarness(MOMS_SHARED, n_banks=3, n_channels=2)


class TestContention:
    def test_shared_suffers_bank_conflicts(self):
        """PEs hitting distinct lines on one bank conflict at the crossbar."""
        h = HierarchyHarness(MOMS_SHARED, n_banks=4, n_channels=2)
        # All addresses on channel 0, bank 0: line % 2 == 0, granule 0.
        addrs = [
            [(64 * (2 * i)) for i in range(10)] for _ in range(4)
        ]
        h.drive(addrs)
        h.run()
        h.check_all_correct()
        xbar = h.hierarchy.crossbars[0]
        assert xbar.conflict_cycles > 0

    def test_stats_aggregation(self):
        h = HierarchyHarness(MOMS_TWO_LEVEL)
        h.drive([[i * 4 for i in range(32)] for _ in range(4)])
        h.run()
        assert h.hierarchy.total_requests() == 128
        assert 0.0 <= h.hierarchy.hit_rate() <= 1.0
        assert h.hierarchy.dram_lines_requested() >= 1
        breakdown = h.hierarchy.stall_breakdown()
        assert set(breakdown) == {
            "stall_mshr", "stall_subentry", "stall_downstream",
            "stall_response_port",
        }
        assert h.hierarchy.is_idle()
