"""Disabled-gate census and enabled-observer legs on one BFS point.

With no observer attached, every component event site is one
``_probe is None`` test, the engine tests the earliest due cycle of its
watchdog, sampler and checkpointer once per step, and fault injection
adds its ``_fault`` tests.  :func:`test_disabled_gates_under_budget` counts those
gate executions exactly (:func:`_gate_census`), prices one gate with a
micro-benchmark (:func:`_gate_cost_ns`), and asserts the implied
observer-off overhead stays under 3% of the unprobed wall clock.

The same runs interleave one off leg, A B A B, with an on leg per
observer: invariant checks (ledger + watchdog), telemetry (the one
run observer: gauges, stall accounts, request table, sampled spans)
and periodic checkpointing.  Every run must simulate exactly
the off leg's cycles -- observers never perturb the model -- and each
leg's slowdown is printed as the median of its per-round ratios to the
off leg, with min and max.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_probe_gates.py -q -rs
"""

import statistics
import time

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.core import bank as bank_module
from repro.core.bank import MomsBank
from repro.core.mshr import AssociativeMshrFile, CuckooMshrFile
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.sim.probe import EventCounter
from repro.telemetry import TelemetryConfig

REPEATS = 3
BUDGET = 0.03  # implied disabled-gate cost, as a share of the off wall


def _gate_cost_ns(loops=1_000_000):
    """Cost of one *disabled* hook gate, in nanoseconds.

    A disabled gate is a class-attribute load plus an ``is None`` test
    (the component ``_probe`` and ``_fault`` slots); the two work loops
    below differ by exactly three such gates, so the per-gate cost is
    the wall-clock difference divided by ``3 * loops``.
    """

    class Plain:
        def work(self, token, state):
            state[token & 7] = state.get(token & 7, 0) + 1
            return token

    class Gated(Plain):
        _probe = None
        _fault = None

        def work(self, token, state):
            if self._probe is not None:
                self._probe.pe_verify(self, token)
            if self._fault is not None:
                token = self._fault.corrupt_moms_token(token)
            state[token & 7] = state.get(token & 7, 0) + 1
            if self._probe is not None:
                self._probe.pe_retire(self, token, 0, 0)
            return token

    def wall(obj):
        state = {}
        work = obj.work
        start = time.perf_counter()
        for i in range(loops):
            work(i, state)
        return time.perf_counter() - start

    plain = min(wall(Plain()) for _ in range(3))
    gated = min(wall(Gated()) for _ in range(3))
    return max((gated - plain) / (loops * 3) * 1e9, 0.1)


def _overhead_config():
    graph = web_graph(600, 3000, seed=9)
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, "bfs", n_channels=2),
        **SCALED_DEFAULTS,
    )
    return graph, config


def _gate_census(graph, config, system_off, monkeypatch):
    """Count the disabled-path gate executions of one unprobed run.

    * **probe** -- an :class:`EventCounter` installed as the probe
      counts how often each event site's ``_probe`` gate passes.  A
      probe observes without waking anyone, so the probed run makes
      exactly the unprobed run's ticks and its count is the unprobed
      run's gate count.
    * **engine_poll** -- the one due-cycle test per engine step that
      gates the watchdog, sampler and checkpointer polls.
    * **fault** -- the ``_fault`` tests: one per DRAM tick, two per
      DRAM accept, one per response schedule, one per MSHR insert
      call (the retries a bank sleeps through, or settles in place on
      a wake without a line, make none), one per subentry replay, and
      one per hopeless MSHR failure, where the bank tests the MSHR
      file's slot before it sleeps.
    """
    counter = EventCounter()
    probed = AcceleratorSystem(graph, "bfs", config)
    probed.install_probe([counter])
    inserts = [0]
    sleeps = [0]
    handle = MomsBank._handle_request

    def counted_handle(bank):
        outcome = handle(bank)
        sleeps[0] += outcome is bank_module._SPIN
        return outcome

    monkeypatch.setattr(MomsBank, "_handle_request", counted_handle)
    for cls in (CuckooMshrFile, AssociativeMshrFile):
        insert = cls.insert

        def counted_insert(mshrs, line_addr, insert=insert):
            inserts[0] += 1
            return insert(mshrs, line_addr)

        monkeypatch.setattr(cls, "insert", counted_insert)
    probed.run()
    monkeypatch.undo()
    engine = system_off.engine
    assert probed.engine.activity() == engine.activity(), (
        "the probed census run ticked differently from the unprobed "
        "run, so its event count is no longer the unprobed gate count"
    )
    events = counter.counts

    channels = system_off.mem.channels
    sites = {
        "probe": sum(events.values()),
        "engine_poll": engine.cycles_simulated,
        "fault": (
            sum(channel.ticks for channel in channels)
            + 2 * events["dram_accept"]
            + events["dram_schedule"]
            + inserts[0]
            + events["bank_replay"]
            + sleeps[0]
        ),
    }
    sites["total"] = sum(sites.values())
    return sites, events


@pytest.fixture(scope="module")
def legs(tmp_path_factory):
    """Run the off leg and each on leg REPEATS times, interleaved."""
    graph, config = _overhead_config()
    snap = tmp_path_factory.mktemp("probe-gates") / "point.snap"
    leg_kwargs = {
        "off": {},
        "checks": {"checks": True},
        "telemetry": {"telemetry": TelemetryConfig(sample_interval=64,
                                                   sample_rate=16)},
        "checkpoint": {"checkpoint": f"{snap}:5000"},
    }
    walls = {leg: [] for leg in leg_kwargs}
    cycles = {leg: [] for leg in leg_kwargs}
    for _ in range(REPEATS):
        for leg, kwargs in leg_kwargs.items():
            system = AcceleratorSystem(graph, "bfs", config, **kwargs)
            start = time.perf_counter()
            result = system.run()
            walls[leg].append(time.perf_counter() - start)
            cycles[leg].append(result.cycles)
            if leg == "off":
                system_off = system
    return graph, config, system_off, walls, cycles


def test_disabled_gates_under_budget(legs, capsys, monkeypatch):
    graph, config, system_off, walls, _cycles = legs
    sites, events = _gate_census(graph, config, system_off, monkeypatch)
    gate_ns = _gate_cost_ns()
    wall_off = min(walls["off"])
    implied = sites["total"] * gate_ns * 1e-9 / wall_off
    with capsys.disabled():
        print("\ngate census: " + ", ".join(
            f"{term} {count:,}" for term, count in sites.items()))
        print("probe events: " + ", ".join(
            f"{event} {count:,}" for event, count in events.items()))
        print(f"implied off overhead {implied * 100:.2f}% "
              f"({sites['total']:,} gates x {gate_ns:.1f} ns over "
              f"{wall_off:.3f} s); bound {BUDGET * 100:g}%")
    assert implied < BUDGET, (
        f"disabled probe/engine/fault gates imply {implied * 100:.2f}% "
        f"overhead ({sites['total']} gates x {gate_ns:.1f}ns over "
        f"{wall_off:.3f}s); budget is {BUDGET * 100:g}%"
    )


def test_observers_never_perturb_cycles(legs, capsys):
    _graph, _config, _system_off, walls, cycles = legs
    off_cycles = cycles["off"][0]
    with capsys.disabled():
        print(f"\nobserver slowdowns over {REPEATS} interleaved rounds "
              f"({off_cycles:,} cycles, off median "
              f"{statistics.median(walls['off']):.3f} s):")
        for leg, leg_walls in walls.items():
            if leg == "off":
                continue
            ratios = [on / off for on, off in zip(leg_walls, walls["off"])]
            print(f"  {leg:<10} {statistics.median(ratios):.2f}x "
                  f"(min {min(ratios):.2f}x, max {max(ratios):.2f}x)")
    for leg, leg_cycles in cycles.items():
        assert leg_cycles == [off_cycles] * REPEATS, (
            f"enabling {leg} changed the model: {leg_cycles} cycles, "
            f"off leg {off_cycles}"
        )
