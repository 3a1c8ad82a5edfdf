"""Tests for the DRAM channel timing model and the memory system."""

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, FaultState, Window
from repro.mem import (
    LINE_BYTES,
    DramTimings,
    MemRequest,
    MemResponse,
    MemorySystem,
)
from repro.sim import Channel, Engine


def make_system(n_channels=1, latency=10, size=1 << 16):
    engine = Engine()
    timings = DramTimings(latency=latency)
    mem = MemorySystem(engine, size, n_channels=n_channels, timings=timings)
    return engine, mem


def drain(engine, resp, count, max_cycles=100_000):
    got = []
    engine.run(done=lambda: len(resp) >= count or engine.now > max_cycles)
    while resp.can_pop():
        got.append(resp.pop())
    return got


class TestMemRequest:
    def test_beats_rounds_up(self):
        r = MemRequest(addr=0, nbytes=65)
        assert r.beats == 2

    def test_write_needs_data(self):
        with pytest.raises(ValueError):
            MemRequest(addr=0, nbytes=64, is_write=True)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            MemRequest(addr=0, nbytes=64, kind="banana")


class TestDramChannel:
    def test_read_returns_store_contents(self):
        engine, mem = make_system()
        mem.view_u32(128, 4)[:] = [1, 2, 3, 4]
        resp = engine.add_channel(Channel(8))
        mem.channels[0].req.push(
            MemRequest(addr=128, nbytes=64, kind="single", tag="t",
                       respond_to=resp)
        )
        (beat,) = drain(engine, resp, 1)
        assert beat.tag == "t"
        assert beat.last
        assert list(beat.data[:16].view(np.uint32)) == [1, 2, 3, 4]

    def test_read_latency(self):
        engine, mem = make_system(latency=25)
        resp = engine.add_channel(Channel(8))
        mem.channels[0].req.push(
            MemRequest(addr=0, nbytes=64, kind="single", respond_to=resp)
        )
        engine.run(done=lambda: len(resp) >= 1)
        # 1 cycle to pop request + 2 cycles single-beat service + latency,
        # +1 for channel commit visibility.
        assert 25 <= engine.now <= 31

    def test_burst_beats_arrive_in_order(self):
        engine, mem = make_system()
        for i in range(32):
            mem.view_u32(i * 64, 1)[0] = i
        resp = engine.add_channel(Channel(64))
        mem.channels[0].req.push(
            MemRequest(addr=0, nbytes=32 * 64, kind="burst", respond_to=resp)
        )
        beats = drain(engine, resp, 32)
        assert [b.beat for b in beats] == list(range(32))
        assert [b.data[:4].view(np.uint32)[0] for b in beats] == list(range(32))
        assert beats[-1].last and not beats[0].last

    def test_single_reads_half_bandwidth(self):
        """Single random reads take ~2 cycles/line; bursts ~1 cycle/line."""
        n_lines = 128

        def run(kind):
            engine, mem = make_system(latency=5)
            resp = engine.add_channel(Channel(256))
            received = []

            if kind == "single":
                requests = [
                    MemRequest(addr=i * 64, nbytes=64, kind="single",
                               respond_to=resp)
                    for i in range(n_lines)
                ]
            else:
                requests = [
                    MemRequest(addr=0, nbytes=n_lines * 64, kind="burst",
                               respond_to=resp)
                ]
            pending = list(requests)

            while len(received) < n_lines:
                while pending and mem.channels[0].req.can_push():
                    mem.channels[0].req.push(pending.pop(0))
                engine._step()
                while resp.can_pop():
                    received.append(resp.pop())
            return engine.now

        t_single = run("single")
        t_burst = run("burst")
        ratio = t_single / t_burst
        assert 1.6 <= ratio <= 2.4

    def test_write_updates_store_and_acks(self):
        engine, mem = make_system()
        resp = engine.add_channel(Channel(4))
        payload = np.arange(64, dtype=np.uint8)
        mem.channels[0].req.push(
            MemRequest(addr=256, nbytes=64, is_write=True, data=payload,
                       tag="w", respond_to=resp)
        )
        (ack,) = drain(engine, resp, 1)
        assert ack.is_write_ack and ack.tag == "w"
        assert np.array_equal(mem.read_bytes(256, 64), payload)

    def test_stats_accumulate(self):
        engine, mem = make_system()
        resp = engine.add_channel(Channel(64))
        mem.channels[0].req.push(
            MemRequest(addr=0, nbytes=4 * 64, kind="burst", respond_to=resp)
        )
        drain(engine, resp, 4)
        stats = mem.channels[0].stats
        assert stats.bytes_read == 256
        assert stats.reads_burst == 1
        assert stats.lines_burst == 4

    def test_head_of_line_blocking_on_full_response_channel(self):
        engine, mem = make_system(latency=2)
        resp = engine.add_channel(Channel(1))
        mem.channels[0].req.push(
            MemRequest(addr=0, nbytes=4 * 64, kind="burst", respond_to=resp)
        )
        # Never pop: the channel fills and the DRAM must hold responses.
        engine.run(done=lambda: len(resp) == 1, max_cycles=100)
        for _ in range(20):
            engine._step()
        assert len(resp) == 1
        assert mem.channels[0].pending == 3

    def test_unfaulted_read_is_one_segment(self):
        """Without a fault plan a read's beats are scheduled as one
        arithmetic ``_Segment`` record, not one tuple per beat."""
        engine, mem = make_system()
        channel = mem.channels[0]
        resp = engine.add_channel(Channel(8))
        channel.req.push(MemRequest(addr=0, nbytes=256, kind="burst",
                                    respond_to=resp))
        engine.run(done=lambda: bool(channel._scheduled), max_cycles=10)
        (segment,) = channel._scheduled
        assert type(segment) is not tuple and segment.n == 4

    @pytest.mark.parametrize("faulted", (False, True))
    def test_fire_and_forget_read_evaporates(self, faulted):
        """Beats of a read with no requester evaporate, from a segment
        or, under a fault plan, from per-beat tuples, with no observer
        attached."""
        engine, mem = make_system()
        channel = mem.channels[0]
        if faulted:
            plan = FaultPlan(dram_latency=Window(100, 10),
                             dram_extra_latency=5)
            channel._fault = FaultState(plan, engine)
        channel.req.push(MemRequest(addr=0, nbytes=128, kind="burst"))
        engine.run()
        assert channel.pending == 0
        assert channel.stats.lines_burst == 2


class TestMemorySystem:
    def test_functional_views_alias_store(self):
        _, mem = make_system()
        mem.view_u32(0, 2)[:] = [7, 9]
        assert list(mem.read_bytes(0, 4).view(np.uint32)) == [7]
        mem.view_f32(8, 1)[0] = 1.5
        assert mem.view_f32(8, 1)[0] == 1.5

    def test_unaligned_view_rejected(self):
        _, mem = make_system()
        with pytest.raises(ValueError):
            mem.view_u32(2, 1)

    def test_split_burst_routes_by_granule(self):
        engine, mem = make_system(n_channels=2, size=1 << 16)
        req = MemRequest(addr=2048 - 64, nbytes=128, kind="burst")
        pieces = mem.split_burst(req)
        assert [channel for channel, _ in pieces] == [0, 1]
        assert pieces[0][1].nbytes == 64
        assert pieces[1][1].addr == 2048

    def test_split_burst_write_slices_data(self):
        engine, mem = make_system(n_channels=2, size=1 << 16)
        data = np.arange(128, dtype=np.uint8)
        req = MemRequest(addr=2048 - 64, nbytes=128, kind="burst",
                         is_write=True, data=data)
        pieces = mem.split_burst(req)
        assert np.array_equal(pieces[0][1].data, data[:64])
        assert np.array_equal(pieces[1][1].data, data[64:])

    def test_multi_channel_interleaved_read(self):
        """A burst spanning two granules is served by two channels."""
        engine, mem = make_system(n_channels=2, size=1 << 16)
        resp = engine.add_channel(Channel(128))
        req = MemRequest(addr=0, nbytes=4096, kind="burst", tag="x",
                         respond_to=resp)
        for channel, piece in mem.split_burst(req):
            mem.channels[channel].req.push(piece)
        beats = drain(engine, resp, 64)
        assert len(beats) == 64
        addrs = sorted(b.addr for b in beats)
        assert addrs == [i * 64 for i in range(64)]
        assert mem.total_bytes_read() == 4096
        assert mem.channels[0].stats.bytes_read == 2048
        assert mem.channels[1].stats.bytes_read == 2048

    def test_reset_stats(self):
        engine, mem = make_system()
        resp = engine.add_channel(Channel(8))
        mem.channels[0].req.push(
            MemRequest(addr=0, nbytes=64, kind="single", respond_to=resp)
        )
        drain(engine, resp, 1)
        assert mem.total_bytes_read() == 64
        mem.reset_stats()
        assert mem.total_bytes_read() == 0
