"""Tests for the MOMS bank pipeline: coalescing, stalls, correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BankParams, MomsBank
from repro.core.hierarchy import DramDownstream
from repro.mem import DramTimings, MemorySystem
from repro.sim import Channel, Engine, MomsRequest


class BankHarness:
    """One bank wired to one DRAM channel with a patterned store."""

    def __init__(self, latency=10, **param_overrides):
        params = dict(
            n_mshrs=64,
            n_subentries=256,
            cache_lines=0,
            cache_assoc=1,
        )
        params.update(param_overrides)
        self.engine = Engine()
        self.mem = MemorySystem(
            self.engine, 1 << 16, n_channels=1,
            timings=DramTimings(latency=latency),
        )
        # Pattern: word at address a holds a // 4.
        words = self.mem.view_u32(0, (1 << 16) // 4)
        words[:] = np.arange(len(words), dtype=np.uint32)
        self.req_in = self.engine.add_channel(Channel(64, name="req"))
        self.resp_out = self.engine.add_channel(Channel(512, name="resp"))
        line_in = self.engine.add_channel(Channel(16, name="line"))
        downstream = DramDownstream(
            self.mem, [self.mem.channels[0].req], line_in
        )
        self.bank = MomsBank(
            BankParams(**params), self.req_in, self.resp_out, line_in,
            downstream, self.mem,
        )
        self.engine.add_component(self.bank)

    def request(self, addr, req_id=None, size=4, port=0):
        self.req_in.push(MomsRequest(addr=addr, size=size,
                                     req_id=req_id, port=port))

    def run_and_collect(self, n_responses, max_cycles=50_000):
        responses = []

        def done():
            while self.resp_out.can_pop():
                responses.append(self.resp_out.pop())
            return len(responses) >= n_responses

        self.engine.run(done=done, max_cycles=max_cycles)
        return responses

    def dram_lines(self):
        return self.mem.channels[0].stats.lines_single


def word_of(response):
    return int(np.frombuffer(response.data.tobytes(), dtype=np.uint32)[0])


class TestMissPath:
    def test_single_miss_round_trip(self):
        h = BankHarness()
        h.request(addr=0x100, req_id="r1")
        (resp,) = h.run_and_collect(1)
        assert resp.req_id == "r1"
        assert resp.addr == 0x100
        assert word_of(resp) == 0x100 // 4
        assert h.dram_lines() == 1

    def test_secondary_misses_coalesce(self):
        """Many requests to one line -> one DRAM request, all served."""
        h = BankHarness(latency=60)  # longer than the 16-request train
        for i in range(16):
            h.request(addr=0x200 + 4 * (i % 16), req_id=i)
        responses = h.run_and_collect(16)
        assert len(responses) == 16
        assert h.dram_lines() == 1
        assert h.bank.stats.primary_misses == 1
        assert h.bank.stats.secondary_misses == 15

    def test_distinct_lines_fetch_separately(self):
        h = BankHarness()
        for i in range(8):
            h.request(addr=i * 64, req_id=i)
        responses = h.run_and_collect(8)
        assert h.dram_lines() == 8
        assert {r.req_id for r in responses} == set(range(8))

    def test_data_correct_for_every_offset(self):
        h = BankHarness()
        for offset in range(0, 64, 4):
            h.request(addr=0x400 + offset, req_id=offset)
        responses = h.run_and_collect(16)
        for resp in responses:
            assert word_of(resp) == resp.addr // 4

    def test_mshr_freed_after_drain(self):
        h = BankHarness()
        h.request(addr=0, req_id=0)
        h.run_and_collect(1)
        assert h.bank.outstanding_misses == 0
        assert h.bank.is_idle()

    def test_port_and_id_passthrough(self):
        h = BankHarness()
        h.request(addr=64, req_id=("edge", 7), port=3)
        (resp,) = h.run_and_collect(1)
        assert resp.req_id == ("edge", 7)
        assert resp.port == 3


class TestCachePath:
    def test_second_access_hits(self):
        h = BankHarness(cache_lines=16)
        h.request(addr=0, req_id="a")
        h.run_and_collect(1)
        h.request(addr=4, req_id="b")
        (resp,) = h.run_and_collect(1)
        assert h.bank.stats.cache_hits == 1
        assert h.dram_lines() == 1
        assert word_of(resp) == 1

    def test_hit_rate_statistic(self):
        h = BankHarness(cache_lines=16)
        h.request(addr=0, req_id=0)
        h.run_and_collect(1)
        for i in range(1, 4):
            h.request(addr=4 * i, req_id=i)
        h.run_and_collect(3)
        assert h.bank.stats.hit_rate == pytest.approx(3 / 4)

    def test_cacheless_refetches(self):
        h = BankHarness(cache_lines=0)
        h.request(addr=0, req_id="a")
        h.run_and_collect(1)
        h.request(addr=0, req_id="b")
        h.run_and_collect(1)
        assert h.dram_lines() == 2


class TestStalls:
    def test_traditional_blocks_when_mshrs_full(self):
        """16 associative MSHRs: the 17th distinct line must wait."""
        h = BankHarness(latency=200, associative_mshrs=True, n_mshrs=16,
                        n_subentries=16 * 8, subentries_per_mshr=8)
        for i in range(17):
            h.request(addr=i * 64, req_id=i)
        # Run until all 17 served; stalls must have occurred.
        responses = h.run_and_collect(17)
        assert len(responses) == 17
        assert h.bank.stats.stall_mshr > 0
        assert h.bank.mshrs.stats.peak_occupancy == 16

    def test_subentry_limit_stalls_traditional(self):
        """9th request to one line exceeds 8 subentries per MSHR."""
        h = BankHarness(latency=300, associative_mshrs=True, n_mshrs=16,
                        n_subentries=16 * 8, subentries_per_mshr=8)
        for i in range(12):
            h.request(addr=4 * (i % 16), req_id=i)
        responses = h.run_and_collect(12)
        assert len(responses) == 12
        assert h.bank.stats.stall_subentry > 0

    def test_subentry_pool_exhaustion_stalls_moms(self):
        h = BankHarness(latency=400, n_mshrs=64, n_subentries=8)
        for i in range(16):
            h.request(addr=4 * (i % 16), req_id=i)
        responses = h.run_and_collect(16)
        assert len(responses) == 16
        assert h.bank.stats.stall_subentry > 0

    def test_moms_outstanding_grows_with_latency(self):
        """High latency + many lines -> many outstanding misses at once."""
        h = BankHarness(latency=500, n_mshrs=64, n_subentries=256)
        for i in range(48):
            h.request(addr=i * 64, req_id=i)
        h.run_and_collect(48)
        assert h.bank.mshrs.stats.peak_occupancy >= 16


class TestPipelineSharing:
    def test_drain_blocks_requests(self):
        """While serving a fat subentry chain, new requests wait."""
        h = BankHarness(latency=20)
        # 32 requests to one line build a long chain.
        for i in range(32):
            h.request(addr=4 * (i % 16), req_id=i)
        responses = h.run_and_collect(32)
        assert len(responses) == 32
        # Requests and responses share one pipeline slot per cycle:
        # 32 accepts plus a 1/cycle drain of 32 responses take at
        # least 64 cycles.
        assert h.engine.now >= 64


class TestPropertyBased:
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_every_request_answered_exactly_once_with_correct_data(
        self, word_indices
    ):
        """Property: lossless, correct, and at most one fetch per line."""
        h = BankHarness(cache_lines=8)
        for i, word in enumerate(word_indices):
            h.request(addr=word * 4, req_id=i)
        responses = h.run_and_collect(len(word_indices))
        assert len(responses) == len(word_indices)
        by_id = {r.req_id: r for r in responses}
        assert len(by_id) == len(word_indices)
        for i, word in enumerate(word_indices):
            assert word_of(by_id[i]) == word
        unique_lines = len({word * 4 // 64 for word in word_indices})
        assert unique_lines <= h.dram_lines() <= len(word_indices)
