"""Unit tests for PE plumbing: burst requester, config scaling, phases."""

import numpy as np
import pytest

from repro.accel.config import (
    ArchitectureConfig,
    SCALED_DEFAULTS,
    _design,
    named_architectures,
)
from repro.accel.pe import BurstRequester
from repro.accel.system import AcceleratorSystem
from repro.graph import Graph, web_graph
from repro.mem import MemorySystem
from repro.sim import Channel, Engine


def make_requester(n_channels=2, capacity=4):
    engine = Engine()
    mem = MemorySystem(engine, 1 << 16, n_channels=n_channels)
    ports = [engine.add_channel(Channel(capacity)) for _ in range(n_channels)]
    resp = engine.add_channel(Channel(16))
    return BurstRequester(mem, ports, resp), ports


class TestBurstRequester:
    def test_beats_for_aligned(self):
        requester, _ = make_requester()
        assert requester.beats_for(0, 64) == 1
        assert requester.beats_for(0, 2048) == 32

    def test_beats_for_unaligned_split(self):
        """A burst crossing a granule boundary mid-line adds a beat."""
        requester, _ = make_requester()
        # 80 bytes starting 40 bytes before the 2048 boundary: pieces of
        # 40 and 40 bytes, one beat each.
        assert requester.beats_for(2048 - 40, 80) == 2
        # Fully inside one granule: 80 unaligned bytes -> 2 beats.
        assert requester.beats_for(24, 80) == 2

    def test_can_issue_respects_per_channel_capacity(self):
        requester, ports = make_requester(capacity=1)
        assert requester.can_issue(0, 64)
        requester.issue(0, 64, tag="a")
        # Channel 0 is now full for this cycle.
        assert not requester.can_issue(0, 64)
        # Channel 1 (addresses in the second granule) still has room.
        assert requester.can_issue(2048, 64)

    def test_issue_returns_piece_count(self):
        requester, ports = make_requester()
        assert requester.issue(0, 64, tag="x") == 1
        assert requester.issue(2048 - 64, 128, tag="y") == 2

    def test_write_issue_slices_data(self):
        requester, ports = make_requester()
        data = np.arange(128, dtype=np.uint8)
        requester.issue(2048 - 64, 128, tag="w", is_write=True, data=data)
        # Pieces are staged until end-of-cycle; commit to inspect.
        for port in ports:
            port.commit()
        assert np.array_equal(ports[0].pop().data, data[:64])
        assert np.array_equal(ports[1].pop().data, data[64:])

    def test_request_validation_does_not_depend_on_history(self,
                                                           monkeypatch):
        """A zero-byte burst piece is refused after a whole run exactly
        as on a cold start: every request is validated where it is
        built, however many requests came before it.  The interleaver
        already refuses a zero-byte burst itself, so its piece list is
        stubbed to reach the request constructor."""
        config = ArchitectureConfig(
            _design(2, 2, "two-level", "pagerank", n_channels=2),
            **SCALED_DEFAULTS,
        )
        system = AcceleratorSystem(web_graph(300, 1200, seed=5),
                                   "pagerank", config)
        system.run(max_iterations=1)
        requester = system.pes[0].dma
        monkeypatch.setattr(requester.interleaver, "split",
                            lambda addr, nbytes: [(0, addr, 0, addr)])
        with pytest.raises(ValueError):
            requester.issue(0, 64, tag=("ptrs",))


class TestConfigScaling:
    def test_scaled_for_guarantees_jobs_per_pe(self):
        config = named_architectures("scc", 2)["16/16 two-level"]
        graph = web_graph(5000, 20000, seed=1)
        scaled = config.scaled_for(graph)
        n_jobs = -(-graph.n_nodes // scaled.nodes_per_dst_interval)
        assert n_jobs >= 2 * config.design.n_pes

    def test_scaled_for_keeps_line_multiple(self):
        config = named_architectures("scc", 2)["16/16 two-level"]
        for n in (100, 1000, 5000, 50_000):
            graph = Graph(n, [0], [n - 1])
            scaled = config.scaled_for(graph)
            assert scaled.nodes_per_dst_interval % 16 == 0
            assert scaled.nodes_per_src_interval >= \
                scaled.nodes_per_dst_interval

    def test_scaled_for_noop_on_large_graphs(self):
        config = named_architectures("scc", 2)["16/16 two-level"]
        graph = Graph(100_000, [0], [1])
        assert config.scaled_for(graph) is config

    def test_named_architectures_cover_organizations(self):
        archs = named_architectures("pagerank")
        organizations = {c.design.organization for c in archs.values()}
        assert organizations == {"shared", "private", "two-level",
                                 "traditional"}

    def test_design_validation(self):
        with pytest.raises(ValueError):
            _design(0, 4, "shared", "scc")


class TestPEPhaseAccounting:
    def make_system(self, **kwargs):
        graph = web_graph(800, 4000, seed=31)
        config = ArchitectureConfig(
            _design(2, 2, "two-level", "scc", n_channels=2),
            **SCALED_DEFAULTS,
        )
        return AcceleratorSystem(graph, "scc", config, **kwargs), graph

    def test_phase_cycles_recorded(self):
        system, _ = self.make_system()
        system.run()
        for pe in system.pes:
            assert pe.is_idle()

    def test_jobs_balance_dynamically(self):
        """With jobs >> PEs, no PE finishes the run idle-starved."""
        system, _ = self.make_system()
        system.run()
        jobs = [pe.stats.jobs_completed for pe in system.pes]
        assert all(j > 0 for j in jobs)

    def test_edge_accounting_matches_graph(self):
        system, graph = self.make_system()
        result = system.run(max_iterations=1)
        assert result.edges_processed == \
            sum(pe.stats.edges_processed for pe in system.pes)
        assert result.edges_processed <= graph.n_edges

    def test_local_plus_remote_covers_all_edges(self):
        system, graph = self.make_system()
        result = system.run(max_iterations=1)
        total = result.stats["local_reads"] + result.stats["moms_reads"]
        assert total == result.edges_processed
