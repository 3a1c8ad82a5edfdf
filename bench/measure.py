"""Run one workload for a fixed time and measure it, end to end and per layer.

End-to-end metrics come from untraced repeats.  Per-layer host time
comes from traced repeats, in which every ``tick`` / ``step_n`` that a
``repro.sim.engine.Component`` subclass defines, every channel
``commit``, and the set-up calls ``repro.accel.system`` makes are
wrapped in wall-clock timers from outside the simulator.  A layer is
named after the module that defines the class, without the ``repro.``
prefix.  Model-side per-layer metrics are exact counts from the run
statistics.
"""

import json
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import repro.accel.system as system_module
from repro.graph.layout import GraphLayout
from repro.sim import channel as channel_module
from repro.sim.engine import Component

from workloads import check_values

#: A run makes at least this many repeats, however short ``seconds`` is,
#: so that it always reports a median.
MIN_REPEATS = 3

END_TO_END = {
    "edges_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "gteps": "GTEPS",
}

HOST_LAYERS = (
    "accel.pe", "accel.scheduler", "core.bank", "mem.dram",
    "fabric.crossbar", "fabric.crossing", "fabric.arbiter", "sim.channel",
)

# Set-up calls wrapped by name: (owner, attribute) -> metric.
_SETUP_CALLS = (
    (system_module, "partition_edges", "graph.partition_s"),
    (GraphLayout, "__init__", "graph.layout_s"),
    (GraphLayout, "materialize", "graph.layout_s"),
    (system_module, "build_hierarchy", "core.hierarchy.build_s"),
)

HOST_METRICS = {
    **{f"{layer}.{kind}": unit for layer in HOST_LAYERS
       for kind, unit in (("self_s", "s"), ("share", "fraction"),
                          ("calls", "count"))},
    "core.bank.step_n_s": "s",
    "sim.engine.dispatch_s": "s",
    "graph.generate_s": "s",
    **{metric: "s" for _, _, metric in _SETUP_CALLS},
    "trace.overhead": "x",
    "sim.engine.ns_per_tick": "ns",
    "sim.engine.cycles_per_s": "1/s",
}

MODEL_METRICS = {
    "sim.engine.cycles": "cycles",
    "sim.engine.component_ticks": "count",
    "sim.engine.fused_cycle_fraction": "fraction",
    "sim.engine.cycles_skipped": "cycles",
    "accel.pe.edges": "count",
    "accel.pe.moms_reads": "count",
    "accel.pe.request_stall_frac": "fraction",
    "accel.pe.raw_stalls": "cycles",
    "accel.pe.id_stalls": "cycles",
    "core.bank.requests": "count",
    "core.bank.hit_rate": "fraction",
    "core.bank.merge_rate": "fraction",
    "core.bank.mshr_full_frac": "fraction",
    "core.bank.subentry_full_frac": "fraction",
    "core.bank.downstream_full_frac": "fraction",
    "mem.dram.bytes_read": "bytes",
    "mem.dram.bytes_written": "bytes",
    "mem.dram.busy_frac": "fraction",
    "mem.dram.single_line_fraction": "fraction",
    "mem.dram.effective_bw_ratio": "beats/cycle",
    "mem.dram.peak_queue": "count",
}

PER_LAYER = {**HOST_METRICS, **MODEL_METRICS}


class CoverageError(RuntimeError):
    """The traced run's timers do not account for the engine's work."""


# -- tracing ------------------------------------------------------------------


def _layer_of(cls):
    return cls.__module__.removeprefix("repro.")


def component_classes():
    """Every Component subclass currently imported, depth first."""
    found, stack = [], list(Component.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls not in found:
            found.append(cls)
            stack.extend(cls.__subclasses__())
    return found


def _timed(function, cell):
    clock = time.perf_counter

    def timed(*args, **kwargs):
        start = clock()
        try:
            return function(*args, **kwargs)
        finally:
            cell[0] += clock() - start
            cell[1] += 1

    return timed


class LayerTrace:
    """Wall-clock timers around simulator calls, keyed by layer and method.

    ``cells`` maps ``(layer, method)`` to ``[seconds, calls]``; set-up
    calls use ``(metric, "setup")``.
    """

    def __init__(self):
        self.cells = {}

    @contextmanager
    def installed(self):
        patches = []

        def wrap(owner, name, key):
            original = vars(owner)[name]
            cell = self.cells.setdefault(key, [0.0, 0])
            setattr(owner, name, _timed(original, cell))
            patches.append((owner, name, original))

        try:
            for cls in component_classes():
                for name in ("tick", "step_n"):
                    if callable(vars(cls).get(name)):
                        wrap(cls, name, (_layer_of(cls), name))
            for cls in vars(channel_module).values():
                if (isinstance(cls, type)
                        and cls.__module__ == channel_module.__name__
                        and "commit" in vars(cls)):
                    wrap(cls, "commit", (_layer_of(cls), "commit"))
            for owner, name, metric in _SETUP_CALLS:
                wrap(owner, name, (metric, "setup"))
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    def take(self):
        """The counts so far, ``{key: (seconds, calls)}``; zeroes them."""
        taken = {}
        for key, cell in self.cells.items():
            taken[key] = (cell[0], cell[1])
            cell[0], cell[1] = 0.0, 0
        return taken


def check_coverage(taken, wall_s, engine):
    """Dispatch time of one traced run; raises if the timers miss work.

    Every real tick passes a wrapper (fused cycles are advanced by one
    ``step_n`` call instead), and the wrapped time cannot exceed the
    wall time around ``run``: the remainder is engine dispatch.
    """
    ticks = sum(calls for (_, method), (_, calls) in taken.items()
                if method == "tick")
    expected = engine.component_ticks - _fused_cycles(engine)
    wrapped = sum(seconds for (_, method), (seconds, _) in taken.items()
                  if method != "setup")
    dispatch = wall_s - wrapped
    if ticks != expected or dispatch < 0:
        raise CoverageError(
            f"traced run covers {ticks:,} tick calls of the engine's "
            f"{expected:,} (component_ticks - fused_cycles) and "
            f"{wrapped:.4f}s of {wall_s:.4f}s wall"
        )
    return dispatch


def _fused_cycles(engine):
    # Zero on an engine without macro-tick fusion, so the benchmark
    # outlives the fusion knob.
    return getattr(engine, "fused_cycles", 0)


def _host_layer_metrics(taken, wall_s, dispatch_s):
    metrics = {}
    for layer in HOST_LAYERS:
        seconds = sum(s for (name, method), (s, _) in taken.items()
                      if name == layer and method != "setup")
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.share"] = seconds / wall_s
        metrics[f"{layer}.calls"] = sum(
            c for (name, method), (_, c) in taken.items()
            if name == layer and method != "setup")
    metrics["core.bank.step_n_s"] = taken.get(
        ("core.bank", "step_n"), (0.0, 0))[0]
    metrics["sim.engine.dispatch_s"] = dispatch_s
    for _, _, metric in _SETUP_CALLS:
        metrics[metric] = taken.get((metric, "setup"), (0.0, 0))[0]
    return metrics


def unknown_layers(taken):
    """Layers that were timed but are not in :data:`HOST_LAYERS`."""
    return sorted({name for (name, method) in taken
                   if method != "setup" and name not in HOST_LAYERS})


# -- model-side counts --------------------------------------------------------


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def model_metrics(runs):
    """Exact model counts summed over ``[(system, result), ...]``."""
    cycles = sum(result.cycles for _, result in runs)
    engines = [system.engine for system, _ in runs]
    pes = [(pe, result.cycles) for system, result in runs
           for pe in system.pes]
    banks = [(bank, result.cycles) for system, result in runs
             for bank in system.hierarchy.banks]
    channels = [(ch, result.cycles) for system, result in runs
                for ch in system.mem.channels]
    bank_cycles = sum(c for _, c in banks)
    primary = sum(b.stats.primary_misses for b, _ in banks)
    secondary = sum(b.stats.secondary_misses for b, _ in banks)
    requests = sum(b.stats.requests for b, _ in banks)
    lines = sum(ch.stats.lines_total for ch, _ in channels)
    busy = sum(ch.stats.busy_cycles for ch, _ in channels)
    return {
        "sim.engine.cycles": cycles,
        "sim.engine.component_ticks": sum(e.component_ticks
                                          for e in engines),
        "sim.engine.fused_cycle_fraction": _ratio(
            sum(_fused_cycles(e) for e in engines), cycles),
        "sim.engine.cycles_skipped": sum(e.cycles_skipped for e in engines),
        "accel.pe.edges": sum(result.edges_processed for _, result in runs),
        "accel.pe.moms_reads": sum(pe.stats.moms_reads for pe, _ in pes),
        "accel.pe.request_stall_frac": _ratio(
            sum(pe.stats.moms_request_stalls for pe, _ in pes),
            sum(c for _, c in pes)),
        "accel.pe.raw_stalls": sum(pe.stats.raw_stalls for pe, _ in pes),
        "accel.pe.id_stalls": sum(pe.stats.id_stalls for pe, _ in pes),
        "core.bank.requests": requests,
        "core.bank.hit_rate": _ratio(
            sum(b.stats.cache_hits for b, _ in banks), requests),
        "core.bank.merge_rate": _ratio(secondary, primary + secondary),
        "core.bank.mshr_full_frac": _ratio(
            sum(b.stats.stall_mshr for b, _ in banks), bank_cycles),
        "core.bank.subentry_full_frac": _ratio(
            sum(b.stats.stall_subentry for b, _ in banks), bank_cycles),
        "core.bank.downstream_full_frac": _ratio(
            sum(b.stats.stall_downstream for b, _ in banks), bank_cycles),
        "mem.dram.bytes_read": sum(ch.stats.bytes_read for ch, _ in channels),
        "mem.dram.bytes_written": sum(ch.stats.bytes_written
                                      for ch, _ in channels),
        "mem.dram.busy_frac": _ratio(busy, sum(c for _, c in channels)),
        "mem.dram.single_line_fraction": _ratio(
            sum(ch.stats.lines_single for ch, _ in channels), lines),
        "mem.dram.effective_bw_ratio": _ratio(
            sum(ch.stats.total_beats for ch, _ in channels), busy),
        "mem.dram.peak_queue": max(ch.stats.peak_queue for ch, _ in channels),
    }


def binding_layer(model):
    """The layer with the largest stall fraction, or ``"none"``.

    PEs stall on a full MOMS request port, banks on a full MSHR or
    subentry file, and DRAM backs up into the banks as downstream stalls.
    """
    stalls = {
        "accel.pe": model["accel.pe.request_stall_frac"],
        "core.bank": max(model["core.bank.mshr_full_frac"],
                         model["core.bank.subentry_full_frac"]),
        "mem.dram": model["core.bank.downstream_full_frac"],
    }
    layer = max(stalls, key=stalls.get)
    return layer if stalls[layer] > 0 else "none"


# -- the run ------------------------------------------------------------------


def _fingerprint(result):
    return (result.cycles, result.iterations, result.edges_processed,
            json.dumps(result.stats, sort_keys=True, default=str))


@dataclass
class _Repeat:
    """What one pass over the workload's points measured."""

    setup_s: float = 0.0
    generate_s: float = 0.0
    wall_s: float = 0.0  # inside AcceleratorSystem.run, summed over points
    cycles: int = 0
    edges: int = 0
    model_seconds: float = 0.0
    ticks: int = 0
    rss_mb: float = 0.0
    model: dict = None  # model_metrics() of the points that passed
    host: dict = None  # host-side layer metrics, traced repeats only
    unknown_layers: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def _add(total, taken):
    for key, (seconds, calls) in taken.items():
        old_seconds, old_calls = total.get(key, (0.0, 0))
        total[key] = (old_seconds + seconds, old_calls + calls)


def _one_repeat(workload, seed, topology, expected, fingerprints, trace):
    rep = _Repeat()
    runs = []
    tracer = LayerTrace()
    traced = {}  # summed timer counts of the points that passed
    dispatch_s = 0.0
    with tracer.installed() if trace else nullcontext():
        start = time.perf_counter()
        graph = workload.graph(seed, topology)
        rep.generate_s = time.perf_counter() - start
        rep.setup_s = rep.generate_s
        for point, want in zip(workload.points, expected):
            tracer.take()  # drop what a failed point left behind
            try:
                start = time.perf_counter()
                system = workload.build(graph, point)
                rep.setup_s += time.perf_counter() - start
                setup = tracer.take()
                start = time.perf_counter()
                result = system.run(max_iterations=point.max_iterations)
                wall = time.perf_counter() - start
            except Exception as error:  # a failed point is counted, not fatal
                rep.failures.append(
                    f"{point.label}: {type(error).__name__}: {error}")
                continue
            problem = check_values(point, result, want)
            fingerprint = _fingerprint(result)
            if problem is None and fingerprints.setdefault(
                    point.label, fingerprint) != fingerprint:
                problem = "model counts differ from the first repeat"
            if problem is not None:
                rep.failures.append(f"{point.label}: {problem}")
                continue
            if trace:
                taken = tracer.take()
                dispatch_s += check_coverage(taken, wall, system.engine)
                _add(traced, taken)
                _add(traced, setup)
            rep.wall_s += wall
            rep.cycles += result.cycles
            rep.edges += result.edges_processed
            rep.model_seconds += result.seconds
            rep.ticks += system.engine.component_ticks
            runs.append((system, result))
    if runs:
        rep.model = model_metrics(runs)
        if trace:
            rep.host = _host_layer_metrics(traced, rep.wall_s, dispatch_s)
            rep.host["graph.generate_s"] = rep.generate_s
            rep.unknown_layers = unknown_layers(traced)
    rep.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rep


class RunResult:
    """Outcome of :func:`run_workload`."""

    def __init__(self, workload, repeats):
        self.workload = workload
        self.repeats = repeats
        self.attempted = len(repeats) * len(workload.points)
        self.failures = [f for rep in repeats for f in rep.failures]

    @property
    def failed(self):
        return len(self.failures)

    def _measured(self, traced):
        return [rep for rep in self.repeats
                if rep.model is not None and (rep.host is not None) == traced]

    def end_to_end(self):
        reps = self._measured(traced=False)
        if not reps:
            raise RuntimeError("no untraced repeat completed a point")
        return {
            "edges_per_s": statistics.median(
                rep.edges / rep.wall_s for rep in reps),
            "setup_s": statistics.median(rep.setup_s for rep in reps),
            # After the first repeat, so it does not grow with the
            # number of repeats that fit in the run.
            "peak_rss_mb": reps[0].rss_mb,
            "gteps": statistics.median(
                rep.edges / rep.model_seconds / 1e9 for rep in reps),
        }

    def model(self):
        reps = self._measured(traced=False)
        return reps[-1].model if reps else None

    def per_layer(self):
        traced = self._measured(traced=True)
        plain = self._measured(traced=False)
        if not traced or not plain:
            raise RuntimeError("a traced run needs a traced and an untraced "
                               "repeat that completed a point")
        metrics = {name: statistics.median(rep.host[name] for rep in traced)
                   for name in traced[0].host}
        plain_wall = statistics.median(rep.wall_s for rep in plain)
        metrics["trace.overhead"] = statistics.median(
            rep.wall_s for rep in traced) / plain_wall
        metrics["sim.engine.ns_per_tick"] = (
            plain_wall / plain[-1].ticks * 1e9)
        metrics["sim.engine.cycles_per_s"] = plain[-1].cycles / plain_wall
        metrics.update(plain[-1].model)
        return metrics


def run_workload(workload, seed, seconds, trace=False, topology=None):
    """Repeat *workload* for about *seconds* of host time.

    Each repeat generates the graph, builds one ``AcceleratorSystem``
    per point and runs it; a repeat that would end past *seconds* is not
    started once :data:`MIN_REPEATS` are done.  With *trace*, repeats
    alternate untraced and traced, starting untraced.  *topology*
    replaces the generated graph (tests pass a tiny one).  A point that
    raises or disagrees with the software reference is counted as
    failed and the run goes on.
    """
    reference_graph = workload.graph(seed, topology)
    expected = [workload.reference(reference_graph, point)
                for point in workload.points]
    fingerprints = {}
    repeats = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = trace and len(repeats) % 2 == 1
        repeats.append(_one_repeat(workload, seed, topology, expected,
                                   fingerprints, traced))
        now = time.perf_counter()
        if (len(repeats) >= MIN_REPEATS
                and now - start + (now - began) > seconds):
            break
    return RunResult(workload, repeats)
