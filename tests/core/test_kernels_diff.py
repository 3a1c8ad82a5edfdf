"""Differential tests: columnar structures vs the per-element models.

The subentry store keeps its chains as field columns and the DRAM
schedule keeps read bursts as arithmetic-progression segments; each is
bit-identical to the one-element-at-a-time model it replaces
(DESIGN.md 6.6).  These tests enforce that the hard way: seeded random
operation sequences (>=10k ops) drive the columnar structure and its
per-element reference and assert equal state after every step -- same
rows, same delivered beats on the same cycles -- and whole systems
reproduce the state the per-element (scalar) kernels recorded before
they were retired, including under fault plans (MSHR-full windows,
DRAM blackouts).
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.core.subentry import SubentryStore
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.faults import FaultPlan
from repro.faults.plan import FaultState
from repro.graph import web_graph
from repro.mem import LINE_BYTES, DramTimings, MemRequest, MemorySystem
from repro.sim import Channel, Component, Engine

SEED = 20210614  # ISCA'21 -- any fixed seed works, this one is ours


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


#: (cycles, SHA-256 of the JSON end state) of whole-system runs,
#: recorded from the per-element scalar kernels before they were
#: retired, and re-hashed without the bank stats' unread
#: ``busy_cycles`` field when it was deleted (every other field equal).
SCALAR_STATE = {
    "pagerank": (
        19393,
        "c1aa556d4460f02b55cd7fb9123e1ece054e5e3041dffc549921541549bc5d5b"),
    "bfs": (
        15735,
        "78eff70488da93bdfa3d87abf4a265c7d428d9430f9902ce1734c81cb49da8fc"),
}

#: (cycles, SHA-256 of the JSON value list) of faulted BFS runs under
#: the scalar kernels.
SCALAR_FAULTED = {
    "mshr": (
        37034,
        "ab66905160a5450b1431411d4e25515490d635a4292072f20f36a0ac683c1493"),
    "dram": (
        41931,
        "ab66905160a5450b1431411d4e25515490d635a4292072f20f36a0ac683c1493"),
}


# -- Subentry store: columnar chains vs linked rows ------------------------


class _LinkedRows:
    """The hardware layout: a shared pool of fixed-size rows, each
    chain a list of row lists.  The reference for the columnar store's
    row accounting."""

    def __init__(self, total, row_size):
        self.row_size = row_size
        self.free_rows = total // row_size

    def append(self, chain, item):
        if chain and len(chain[-1]) < self.row_size:
            chain[-1].append(item)
            return True
        if not self.free_rows:
            return False
        self.free_rows -= 1
        chain.append([item])
        return True

    def free_chain(self, chain):
        self.free_rows += len(chain)
        chain.clear()


class TestSubentryKernels:
    def test_random_append_free_sequences_match(self):
        """12k append/free ops against the linked-row reference, row
        accounting and chain contents equal throughout."""
        rows = _LinkedRows(48, row_size=4)
        columnar = SubentryStore(48, row_size=4)
        rng = np.random.default_rng(SEED + 2)
        chains = []  # (linked-row chain, columnar chain)
        for op in range(12_000):
            roll = rng.random()
            if not chains or roll < 0.8:
                if not chains or roll < 0.1:
                    chains.append(([], columnar.new_chain()))
                r_chain, c_chain = chains[rng.integers(0, len(chains))]
                item = (int(rng.integers(0, 1 << 16)),
                        int(rng.integers(0, 8)),
                        int(rng.integers(0, 16)) * 4, 4)
                assert (rows.append(r_chain, item)
                        == columnar.append(c_chain, item))
            else:
                r_chain, c_chain = chains.pop(rng.integers(0, len(chains)))
                assert ([item for row in r_chain for item in row]
                        == list(SubentryStore.chain_items(c_chain)))
                rows.free_chain(r_chain)
                columnar.free_chain(c_chain)
            assert rows.free_rows == columnar.free_rows
            assert columnar.entries_live == sum(
                len(c_chain) for _, c_chain in chains)
        assert columnar.stats.overflows > 0  # the overflow path was hit
        for r_chain, c_chain in chains:
            assert len(r_chain) == c_chain.rows
            assert ([item for row in r_chain for item in row]
                    == list(SubentryStore.chain_items(c_chain)))


# -- DRAM channel: segment scheduler vs per-beat tuples --------------------


class _ScriptedProducer(Component):
    """Pushes a fixed (cycle, request-factory) script into a channel."""

    def __init__(self, engine, req, script):
        self.req = req
        self.script = script
        self.idx = 0
        engine.add_component(self)
        engine.wake(self)

    def tick(self, engine):
        while self.idx < len(self.script):
            when, make = self.script[self.idx]
            if when > engine.now:
                engine.wake_at(self, when)
                return
            if not self.req.can_push():
                self.req.request_space_wake(self)
                return
            self.req.push(make())
            self.idx += 1

    def is_idle(self):
        return self.idx >= len(self.script)


class _PatternedConsumer(Component):
    """Drains 0..3 beats per cycle following a fixed seeded pattern."""

    def __init__(self, engine, resp, pattern):
        self.resp = resp
        self.pattern = pattern
        self.got = []
        engine.add_component(self)
        resp.subscribe_data(self)

    def tick(self, engine):
        budget = self.pattern[engine.now % len(self.pattern)]
        while budget and self.resp.can_pop():
            beat = self.resp.pop()
            self.got.append((
                engine.now, beat.tag, beat.addr, beat.beat, beat.last,
                beat.is_write_ack,
                None if beat.is_write_ack else bytes(beat.data),
            ))
            budget -= 1
        if self.resp.can_pop():
            engine.wake(self)  # throttled this cycle, not starved


def _dram_service_trace(per_beat):
    """Drive one DRAM channel with a seeded random request mix.

    *per_beat* attaches an empty fault plan: it injects nothing, but a
    faulted channel schedules every read beat as its own tuple instead
    of one arithmetic segment.
    """
    engine = Engine()
    mem = MemorySystem(engine, 1 << 20, n_channels=1,
                       timings=DramTimings(latency=12))
    if per_beat:
        mem.channels[0]._fault = FaultState(FaultPlan(), engine)
    mem.view_u32(0, (1 << 20) // 4)[:] = np.arange(
        (1 << 20) // 4, dtype=np.uint32)
    resp = engine.add_channel(Channel(8))
    rng = np.random.default_rng(SEED + 3)
    script = []
    when = 0
    expected_beats = 0
    for index in range(800):
        when += int(rng.integers(0, 4))
        beats = int(rng.integers(1, 9))
        addr = int(rng.integers(0, (1 << 20) // LINE_BYTES - beats))
        addr *= LINE_BYTES
        if rng.random() < 0.2:
            payload = bytes(rng.integers(0, 256, 8, dtype=np.uint8))
            script.append((when, (
                lambda a=addr, p=payload: MemRequest(
                    addr=a, nbytes=8, kind="single", is_write=True,
                    data=np.frombuffer(p, dtype=np.uint8), tag=("w", index),
                    respond_to=resp)
            )))
            expected_beats += 1  # the write ack
        else:
            nbytes = beats * LINE_BYTES
            script.append((when, (
                lambda a=addr, n=nbytes, t=("r", index): MemRequest(
                    addr=a, nbytes=n, kind="burst", tag=t, respond_to=resp)
            )))
            expected_beats += beats
    _ScriptedProducer(engine, mem.channels[0].req, script)
    consumer = _PatternedConsumer(
        engine, resp,
        np.random.default_rng(SEED + 4).integers(0, 4, 64).tolist(),
    )
    engine.run(done=lambda: len(consumer.got) >= expected_beats,
               max_cycles=200_000)
    channel = mem.channels[0]
    assert channel.pending == 0
    return consumer.got, engine.now, channel.stats.as_dict()


class TestDramKernels:
    def test_segment_service_matches_per_beat(self):
        """~3.6k beats delivered cycle-for-cycle, byte-for-byte equal."""
        per_beat = _dram_service_trace(per_beat=True)
        segments = _dram_service_trace(per_beat=False)
        assert per_beat == segments
        assert len(per_beat[0]) > 3000
        assert per_beat[2]["peak_queue"] > 8  # backpressure was exercised


# -- Fault plans -------------------------------------------------------------


def _small_system(algorithm, **kwargs):
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    graph = web_graph(600, 3000, seed=9)
    return AcceleratorSystem(graph, algorithm, config, **kwargs)


class TestEndToEndIdentity:
    @pytest.mark.parametrize("algorithm", ["pagerank", "bfs"])
    def test_cycles_and_state_identical(self, algorithm):
        system = _small_system(algorithm)
        result = system.run(max_iterations=3)
        hierarchy = system.hierarchy
        banks = list(hierarchy.private_banks) + list(hierarchy.shared_banks)
        state = {
            "cycles": result.cycles,
            "values": result.values.tolist(),
            "mshr": [bank.mshrs.stats.as_dict() for bank in banks],
            "subentries": [bank.subentries.stats.as_dict()
                           for bank in banks],
            "banks": [dataclasses.asdict(bank.stats) for bank in banks],
            "dram": [ch.stats.as_dict() for ch in system.mem.channels],
        }
        assert (result.cycles, _sha(state)) == SCALAR_STATE[algorithm]


class TestFaultPlansUnderVector:
    """MSHR-full windows and DRAM blackouts through the batch kernels."""

    @pytest.mark.parametrize("plan_name, engagement", [
        ("mshr", "mshr_forced_failures"),
        ("dram", "blackout_cycles_entered"),
    ])
    def test_vector_recovers_bit_identically(self, plan_name, engagement):
        baseline = _small_system("bfs").run()
        plan = getattr(FaultPlan, f"{plan_name}_plan")()
        system = _small_system("bfs", checks=True, fault_plan=plan)
        result = system.run()
        assert system.fault_state.stats[engagement] > 0
        assert (result.values == baseline.values).all()

    @pytest.mark.parametrize("plan_name", ["mshr", "dram"])
    def test_faulted_cycles_match_scalar(self, plan_name):
        """Faulted runs land on the scalar kernels' cycles too."""
        plan = getattr(FaultPlan, f"{plan_name}_plan")()
        run = _small_system("bfs", fault_plan=plan).run()
        assert (run.cycles, _sha(run.values.tolist())) \
            == SCALAR_FAULTED[plan_name]
