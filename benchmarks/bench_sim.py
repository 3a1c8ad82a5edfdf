"""Quick simulator benchmark suite -> BENCH_sim.json.

Measures the shipping simulator (demand-driven engine, columnar
kernels, token freelists, macro-tick fusion) and the parallel sweep
runner on a fixed four-point suite (PageRank on the RV stand-in across
the shared / private / two-level / traditional organizations -- the
same workload family as Fig. 1/11):

* **serial**: the points run one after another in this process;
* **parallel**: the points run through
  :func:`repro.experiments.common.run_points` with ``REPRO_JOBS``
  workers (defaults to the CPU count); single-worker hosts record the
  skip (``{"skipped": ...}`` with the host core count) instead of null.

Cycle counts and GTEPS are asserted identical between the two passes
(``cycles_identical``).  Each point also reports steady-state token
constructions per simulated cycle (near zero with the freelists
circulating).  A **deep-queue point** -- MSHR-starved, single PE,
long-latency deep-queued DRAM, deeper cuckoo kick chains (see
``_DEEP``), where most cycles are fused macro-tick retry runs -- records
its wall time and fusion coverage; ``--scale`` moves its RMAT graph
scale for exploration.  A micro-benchmark of ``Channel.push_many``
and two disabled-hook gates (<3% budget each) round out the file: the
component probe plus the engine and fault hooks, with counted gate
executions and interleaved checks/telemetry/spans on legs, and the
checkpointer.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim.py [--quick] \
        [--output BENCH_sim.json]

``--quick`` runs the same suite and gates on a smaller graph with a
one-iteration budget (the CI perf-smoke configuration).
"""

import argparse
import json
import os
import pathlib
import platform
import sys
import tempfile
import time

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.core import messages
from repro.core.stats import EngineActivity
from repro.experiments.common import bench_graph, default_jobs, run_points
from repro.fabric.design import (
    MOMS_PRIVATE,
    MOMS_SHARED,
    MOMS_TRADITIONAL,
    MOMS_TWO_LEVEL,
)
from repro.graph import web_graph
from repro.graph.generators import rmat_graph
from repro.mem.dram import DramTimings
from repro.sim import Channel
from repro.sim.engine import Engine
from repro.sim.probe import EventCounter

SUITE = (
    ("traditional", MOMS_TRADITIONAL),
    ("two-level", MOMS_TWO_LEVEL),
    ("shared", MOMS_SHARED),
    ("private", MOMS_PRIVATE),
)

# --quick swaps the suite point for a smaller graph and budget; the
# passes, assertions, and gates are identical (CI perf-smoke config).
_QUICK = {"graph": "WT", "iterations": 1}
_FULL = {"graph": "RV", "iterations": 2}
_SCALE = _FULL

# Deep-queue point: a single-PE / single-bank / single-channel shared
# MOMS starved at the MSHR file -- a tiny structure budget against a
# long-latency, deep-queued DRAM channel, with deeper cuckoo kick
# chains.  Most simulated cycles are full-table retry storms, which is
# exactly the regime the fused macro-tick runs batch.  ``--scale``
# moves the RMAT graph scale for exploration; CI and the committed
# figure use the default.
_DEEP = {
    "rmat_scale": 10,
    "edge_factor": 16,
    "seed": 5,
    "iterations": 1,
    "structure_scale": 1 / 256,
    "dram_latency": 1000,
    "request_queue_depth": 512,
    "mshr_max_kicks": 32,
}


#: Version of the BENCH_sim.json layout; bump it when a key changes.
SCHEMA = 3


def _point(label_org):
    label, organization = label_org
    graph = bench_graph(_SCALE["graph"], True)
    config = ArchitectureConfig(
        _design(4, 4, organization, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    start = time.perf_counter()
    system = AcceleratorSystem(graph, "pagerank", config)
    messages.reset_pool_counters()
    result = system.run(max_iterations=_SCALE["iterations"])
    wall = time.perf_counter() - start
    fresh = messages.fresh_allocations()
    activity = EngineActivity.from_engine(system.engine)
    return {
        "organization": label,
        "cycles": result.cycles,
        "gteps": result.gteps,
        "wall_s": round(wall, 3),
        "tick_fraction": round(activity.tick_fraction, 4),
        "fresh_tokens": fresh,
        "allocs_per_cycle": round(fresh / result.cycles, 5)
        if result.cycles else 0.0,
        "activity": activity.as_dict(),
    }


def run_pass(jobs):
    start = time.perf_counter()
    rows = run_points(_point, list(SUITE), jobs=jobs)
    wall = time.perf_counter() - start
    activity = EngineActivity()
    for row in rows:
        activity.merge(row.pop("activity"))
    return {
        "jobs": jobs,
        "wall_s": round(wall, 3),
        "points": rows,
        "tick_fraction": round(activity.tick_fraction, 4),
        "allocs_per_cycle": round(
            sum(row["fresh_tokens"] for row in rows)
            / max(1, sum(row["cycles"] for row in rows)), 5
        ),
        "summary": activity.summary_line(jobs=jobs),
    }


def _deep_config():
    config = ArchitectureConfig(
        _design(1, 1, MOMS_SHARED, "pagerank", n_channels=1,
                mshr_max_kicks=_DEEP["mshr_max_kicks"]),
        **dict(SCALED_DEFAULTS,
               structure_scale=_DEEP["structure_scale"]),
    )
    config.dram_timings = DramTimings(
        latency=_DEEP["dram_latency"],
        request_queue_depth=_DEEP["request_queue_depth"],
    )
    return config


def run_deep_pass(rmat_scale):
    """Wall time and fusion coverage of the deep-queue point."""
    graph = rmat_graph(rmat_scale, edge_factor=_DEEP["edge_factor"],
                       seed=_DEEP["seed"])
    system = AcceleratorSystem(graph, "pagerank", _deep_config())
    start = time.perf_counter()
    result = system.run(max_iterations=_DEEP["iterations"])
    wall = time.perf_counter() - start
    activity = EngineActivity.from_engine(system.engine)
    return {
        "point": (
            f"PageRank / rmat-{rmat_scale} ef{_DEEP['edge_factor']} / "
            f"shared 1x1, 1 channel, latency "
            f"{_DEEP['dram_latency']}, queue "
            f"{_DEEP['request_queue_depth']}, "
            f"{_DEEP['mshr_max_kicks']}-kick MSHRs, "
            f"structure_scale 1/{round(1 / _DEEP['structure_scale'])}"
        ),
        "rmat_scale": rmat_scale,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "iterations": _DEEP["iterations"],
        "cycles": result.cycles,
        "gteps": result.gteps,
        "wall_s": round(wall, 3),
        "tick_fraction": round(activity.tick_fraction, 4),
        "fused_runs": activity.fused_runs,
        "fused_cycles": activity.fused_cycles,
        "mean_run_len": round(activity.mean_run_len, 1),
        "fused_cycle_fraction": round(
            activity.fused_cycles / result.cycles, 4
        ) if result.cycles else 0.0,
        "fusion_abort_reasons": {
            reason: activity.fusion_abort_reasons[reason]
            for reason in sorted(activity.fusion_abort_reasons)
        },
    }


def bench_push_many(tokens=200_000, batch=16):
    """Per-token push versus one push_many call per batch."""

    def rounds(use_bulk):
        engine = Engine()
        channel = engine.add_channel(Channel(batch))
        start = time.perf_counter()
        for _ in range(tokens // batch):
            if use_bulk:
                channel.push_many(list(range(batch)))
            else:
                for item in range(batch):
                    channel.push(item)
            channel.commit()
            for _ in range(batch):
                channel.pop()
            channel.commit()
        return time.perf_counter() - start

    push_wall = rounds(use_bulk=False)
    bulk_wall = rounds(use_bulk=True)
    return {
        "tokens": tokens,
        "batch": batch,
        "push_wall_s": round(push_wall, 3),
        "push_many_wall_s": round(bulk_wall, 3),
        "speedup": round(push_wall / bulk_wall, 2),
    }


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


def _wall_spread(walls):
    ordered = sorted(walls)
    return {
        "min_s": round(ordered[0], 3),
        "median_s": round(ordered[len(ordered) // 2], 3),
        "max_s": round(ordered[-1], 3),
    }


def _gate_census(graph, config, system_off):
    """Count the disabled-path gate executions of one unprobed run.

    * **probe** -- an :class:`EventCounter` installed as the probe
      counts how often each event site's ``_probe`` gate passes.  A
      probed run never fuses, so it ticks at least every cycle the
      unprobed run ticks and its count bounds the unprobed run's.
    * **engine_poll** -- the watchdog/sampler/checkpointer tests: three
      per engine step and three per fusion attempt.
    * **fault** -- the ``_fault`` tests: one per DRAM tick, two per
      DRAM accept, one per response schedule, one per MSHR insert, one
      per subentry replay, and the step_n fusion declines (three tests
      per ``step_n`` call).
    """
    counter = EventCounter()
    probed = AcceleratorSystem(graph, "bfs", config)
    probed.install_probe([counter])
    probed.run()
    events = counter.counts

    engine = system_off.engine
    aborts = engine.fusion_abort_reasons
    steps = engine.cycles_simulated - engine.fused_cycles
    attempts = engine.fused_runs + sum(aborts.values())
    step_n_calls = engine.fused_runs + aborts.get("component", 0)
    inserts = sum(bank.mshrs.stats.inserts + bank.mshrs.stats.insert_failures
                  for bank in system_off.hierarchy.banks)
    channels = system_off.mem.channels
    sites = {
        "probe": sum(events.values()),
        "engine_poll": 3 * steps + 3 * attempts,
        "fault": (
            sum(channel.ticks for channel in channels)
            + 2 * events["dram_accept"]
            + events["dram_schedule"]
            + inserts
            + events["bank_replay"]
            + 3 * step_n_calls
        ),
    }
    sites["total"] = sum(sites.values())
    return sites, events


def bench_probe_overhead(repeats=3):
    """Disabled-cost gate for the component probe, with enabled legs.

    With no observer attached, every component event site is one
    ``_probe is None`` test, and the engine and fault hooks are more
    ``is None`` tests.  The <3% disabled bound is computed from counted
    gate executions (:func:`_gate_census`) times the micro-benchmarked
    gate price, over the unprobed wall clock.

    One shared off leg is interleaved with an on leg per observer --
    invariant checks (ledger + watchdog), telemetry, and span tracing
    -- so each on leg records its slowdown against the same baseline,
    and its cycle count is asserted identical: observers never
    perturb the model.
    """
    from repro.telemetry import TelemetryConfig
    from repro.tracing import SpansConfig

    graph, config = _overhead_config()
    legs = {
        "off": {},
        "checks": {"checks": True},
        "telemetry": {"telemetry": TelemetryConfig(sample_interval=64)},
        "spans": {"spans": SpansConfig(sample_rate=16)},
    }
    walls = {leg: [] for leg in legs}
    results = {}
    for _ in range(repeats):
        for leg, kwargs in legs.items():
            system = AcceleratorSystem(graph, "bfs", config, **kwargs)
            start = time.perf_counter()
            result = system.run()
            walls[leg].append(time.perf_counter() - start)
            results[leg] = (system, result)
    system_off, off_result = results["off"]
    for leg, (_system, result) in results.items():
        assert result.cycles == off_result.cycles, (
            f"enabling {leg} changed the model: "
            f"{result.cycles} != {off_result.cycles}"
        )

    sites, events = _gate_census(graph, config, system_off)
    gate_ns = _gate_cost_ns()
    wall_off = min(walls["off"])
    implied = sites["total"] * gate_ns * 1e-9 / wall_off
    assert implied < 0.03, (
        f"disabled probe/engine/fault gates imply {implied * 100:.2f}% "
        f"overhead ({sites['total']} gates x {gate_ns:.1f}ns over "
        f"{wall_off:.3f}s); budget is 3%"
    )
    off_median = _wall_spread(walls["off"])["median_s"]
    on_legs = {}
    for leg in legs:
        if leg == "off":
            continue
        spread = _wall_spread(walls[leg])
        spread["slowdown"] = round(spread["median_s"] / off_median, 3)
        on_legs[leg] = spread
    return {
        "point": "BFS / web_graph(600, 3000) / two-level 4x4",
        "cycles": off_result.cycles,
        "repeats": repeats,
        "off": _wall_spread(walls["off"]),
        "on": on_legs,
        "gate_sites": sites,
        "probe_events": events,
        "gate_ns": round(gate_ns, 2),
        "implied_off_overhead_pct": round(implied * 100, 4),
        "budget_pct": 3.0,
    }


def bench_checkpoint_overhead(repeats=3):
    """Zero-cost-when-disabled gate for the checkpointer hook.

    Same methodology as :func:`bench_probe_overhead`: with no
    checkpointer attached the engine pays one ``is None`` gate per
    simulated step, so the implied disabled cost is priced from the
    micro-benchmarked gate and the step count.  A checkpointing-on run
    (short interval, snapshots to a tmpdir) is raced alongside: its
    cycle count must be identical -- snapshots observe, never perturb
    -- and its wall clock plus the checkpointer's own write accounting
    record what periodic snapshots actually cost.
    """
    graph, config = _overhead_config()

    def run_once(checkpoint):
        system = AcceleratorSystem(graph, "bfs", config,
                                   checkpoint=checkpoint)
        start = time.perf_counter()
        result = system.run()
        return system, result, time.perf_counter() - start

    off_walls = []
    for _ in range(repeats):
        system_off, off_result, wall = run_once(checkpoint=None)
        off_walls.append(wall)
    snap_dir = tempfile.mkdtemp(prefix="bench-checkpoint-")
    snap = os.path.join(snap_dir, "bench.snap")
    on_walls = []
    for _ in range(repeats):
        system_on, on_result, wall = run_once(checkpoint=f"{snap}:5000")
        on_walls.append(wall)
    assert on_result.cycles == off_result.cycles, (
        "enabling checkpointing changed the model: "
        f"{on_result.cycles} != {off_result.cycles}"
    )

    checkpointer = system_on.checkpointer
    gate_sites = system_off.engine.cycles_simulated  # one gate per step
    gate_ns = _gate_cost_ns()
    wall_off = min(off_walls)
    implied = gate_sites * gate_ns * 1e-9 / wall_off
    assert implied < 0.03, (
        f"disabled checkpointing implies {implied * 100:.2f}% overhead "
        f"({gate_sites} gates x {gate_ns:.1f}ns over {wall_off:.3f}s); "
        f"budget is 3%"
    )
    return {
        "point": "BFS / web_graph(600, 3000) / two-level 4x4",
        "cycles": off_result.cycles,
        "wall_off_s": round(wall_off, 3),
        "wall_on_s": round(min(on_walls), 3),
        "checkpoint_on_slowdown": round(min(on_walls) / wall_off, 3),
        "gate_sites": gate_sites,
        "gate_ns": round(gate_ns, 2),
        "implied_off_overhead_pct": round(implied * 100, 4),
        "budget_pct": 3.0,
        "interval": 5000,
        "snapshots_written": checkpointer.writes,
        "snapshot_bytes": checkpointer.last_write_bytes,
        "write_wall_s": round(checkpointer.write_seconds, 3),
        "write_ms_each": round(
            checkpointer.write_seconds / max(1, checkpointer.writes)
            * 1000, 2
        ),
    }


def main(argv=None):
    global _SCALE
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(pathlib.Path(__file__).resolve().parent.parent
                    / "BENCH_sim.json"),
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller graph + one-iteration budget (CI perf-smoke)",
    )
    parser.add_argument(
        "--scale", type=int, default=_DEEP["rmat_scale"],
        metavar="RMAT_SCALE",
        help="RMAT scale (log2 nodes) of the deep-queue pass graph "
             f"(default {_DEEP['rmat_scale']}; the deep DRAM/MSHR "
             "queue depths are fixed -- see _DEEP)",
    )
    args = parser.parse_args(argv)
    _SCALE = _QUICK if args.quick else _FULL
    jobs = default_jobs()  # honours REPRO_JOBS, else the CPU count

    # Let parallel sweep workers share generated graphs on disk instead
    # of each rebuilding them (repro.graph.cache); respect an explicit
    # operator setting.
    cache_tmp = None
    if not os.environ.get("REPRO_GRAPH_CACHE", "").strip():
        cache_tmp = tempfile.mkdtemp(prefix="repro-graph-cache-")
        os.environ["REPRO_GRAPH_CACHE"] = cache_tmp

    print(f"serial pass: {len(SUITE)} points, jobs=1")
    serial = run_pass(jobs=1)
    print(f"  wall {serial['wall_s']:.2f}s")
    print(f"  {serial['summary']}")
    if jobs > 1:
        print(f"parallel pass: jobs={jobs}")
        parallel = run_pass(jobs=jobs)
        print(f"  wall {parallel['wall_s']:.2f}s")
        for before, after in zip(serial["points"], parallel["points"]):
            assert before["cycles"] == after["cycles"], (before, after)
            assert before["gteps"] == after["gteps"], (before, after)
    else:
        # Record the skip instead of null, so the report distinguishes
        # "host cannot parallelize" from "pass silently missing" (the
        # CI gate treats this as pass-with-note).
        parallel = {
            "skipped": ("cpu_count=1" if os.cpu_count() == 1
                        else "jobs=1 (REPRO_JOBS)"),
            "cpu_count": os.cpu_count(),
            "jobs": jobs,
        }
        print("parallel pass: skipped "
              f"({parallel['skipped']}; set REPRO_JOBS to override)")

    print(f"deep-queue point: rmat-{args.scale}, MSHR-starved shared 1x1")
    deep = run_deep_pass(args.scale)
    print(f"  {deep['wall_s']:.2f}s over {deep['cycles']:,} cycles "
          f"({100 * deep['fused_cycle_fraction']:.0f}% fused, "
          f"{deep['fused_runs']} runs of mean {deep['mean_run_len']:.0f})")

    print("probe-overhead gate: implied observer-off cost vs 3% budget")
    probe = bench_probe_overhead()
    print(f"  implied {probe['implied_off_overhead_pct']}% "
          f"({probe['gate_sites']['total']} counted gates x "
          f"{probe['gate_ns']}ns over {probe['off']['min_s']}s); "
          + ", ".join(f"{leg} {leg_walls['slowdown']}x"
                      for leg, leg_walls in probe["on"].items()))

    print("checkpoint-overhead gate: implied checkpoint-off cost "
          "vs 3% budget")
    checkpoint = bench_checkpoint_overhead()
    print(f"  implied {checkpoint['implied_off_overhead_pct']}% "
          f"({checkpoint['gate_sites']} gates x {checkpoint['gate_ns']}ns "
          f"over {checkpoint['wall_off_s']}s); checkpoint-on slowdown "
          f"{checkpoint['checkpoint_on_slowdown']}x, "
          f"{checkpoint['snapshots_written']} snapshots at "
          f"{checkpoint['write_ms_each']}ms / "
          f"{checkpoint['snapshot_bytes']} bytes each")

    report = {
        "schema": SCHEMA,
        "suite": f"PageRank/{_SCALE['graph']} quick suite "
                 "(shared, private, two-level, traditional)",
        "quick": args.quick,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "jobs": jobs,
        },
        "serial": serial,
        "parallel": parallel,
        "parallel_speedup": (
            None if "skipped" in parallel
            else round(serial["wall_s"] / parallel["wall_s"], 2)
        ),
        "cycles_identical": True,
        "deep_pass": deep,
        "push_many_micro": bench_push_many(),
        "probe_overhead": probe,
        "checkpoint_overhead": checkpoint,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
