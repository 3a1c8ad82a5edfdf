"""The benchmark's workloads: which graphs, which design points, how checked.

Every workload runs the simulator in its shipping default
configuration -- no engine, kernel, fusion or pool knob is set -- so the
benchmark keeps measuring the same thing when those knobs are deleted.
The seed feeds graph generation only: the Table II stand-ins take it as
their ``seed_offset``, the RMAT generator as ``5 + seed`` and the SSSP
edge weights as ``default_rng(42 + seed)``.

Sizes are chosen so one repeat of a workload takes a few host seconds,
which lets a fixed-length run take the median of several repeats.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.accel.config import SCALED_DEFAULTS, ArchitectureConfig, _design
from repro.accel.system import AcceleratorSystem
from repro.baselines.reference import reference_pagerank, reference_sssp
from repro.fabric.design import (
    MOMS_PRIVATE,
    MOMS_SHARED,
    MOMS_TRADITIONAL,
    MOMS_TWO_LEVEL,
)
from repro.graph.datasets import BENCHMARKS
from repro.graph.generators import rmat_graph
from repro.mem.dram import DramTimings


@dataclass(frozen=True)
class Point:
    """One (design point, algorithm) run on the workload's graph."""

    label: str
    algorithm: str
    config: ArchitectureConfig
    max_iterations: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    topology: Callable[[int], object]  # seed -> unweighted Graph
    points: Tuple[Point, ...]
    weighted: bool = False

    def graph(self, seed, topology=None):
        """The seeded input graph; *topology* replaces the generated one."""
        graph = self.topology(seed) if topology is None else topology
        if self.weighted:
            graph = graph.with_weights(np.random.default_rng(42 + seed))
        return graph

    def build(self, graph, point):
        """The accelerator for *point*, SSSP sourced at the top hub."""
        source = _hub(graph) if point.algorithm == "sssp" else 0
        return AcceleratorSystem(graph, point.algorithm, point.config,
                                 source=source)

    def reference(self, graph, point):
        """Software-reference values for *point* on *graph*."""
        if point.algorithm == "pagerank":
            return reference_pagerank(graph, point.max_iterations)
        if point.algorithm == "sssp":
            return reference_sssp(graph, source=_hub(graph))[0]
        raise ValueError(f"no reference for {point.algorithm!r}")


def _hub(graph):
    # Node 0 reaches only a handful of nodes on some seeds, which makes
    # SSSP converge in a couple of iterations; the largest out-degree
    # node reaches most of the graph on every seed.
    return int(np.argmax(graph.out_degrees()))


def check_values(point, result, expected):
    """Why *result* disagrees with the reference, or None if it agrees.

    PageRank is compared at the same iteration count with rtol 1e-4;
    SSSP distances must match exactly.
    """
    if point.algorithm == "pagerank":
        if result.iterations != point.max_iterations:
            return (f"ran {result.iterations} iterations, "
                    f"expected {point.max_iterations}")
        if not np.allclose(result.values, expected, rtol=1e-4, atol=0):
            worst = np.max(np.abs(result.values - expected)
                           / np.maximum(np.abs(expected), 1e-300))
            return f"PageRank values off by up to {worst:.3g} (rtol 1e-4)"
        return None
    values = np.asarray(result.values).astype(np.int64)
    if not np.array_equal(values, expected):
        wrong = int(np.count_nonzero(values != expected))
        return f"{wrong} SSSP distances differ from the reference"
    return None


def _pagerank_4x4(organization):
    return ArchitectureConfig(
        _design(4, 4, organization, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )


def _starved_config():
    # One PE, one bank, one channel: a tiny MSHR file (structure_scale
    # 1/256) with deep cuckoo kick chains against a long-latency,
    # deep-queued DRAM channel, so most cycles are MSHR-full retries.
    config = ArchitectureConfig(
        _design(1, 1, MOMS_SHARED, "pagerank", n_channels=1,
                mshr_max_kicks=32),
        **dict(SCALED_DEFAULTS, structure_scale=1 / 256),
    )
    config.dram_timings = DramTimings(latency=1000, request_queue_depth=512)
    return config


WORKLOADS = {
    workload.name: workload for workload in (
        # The organization sweep behind Fig. 1/11: large wake sets, almost
        # no fusion, host time spread over PEs, banks, channel commits and
        # engine dispatch.
        Workload(
            name="pr-orgs",
            topology=lambda seed: BENCHMARKS["RV"].generate(seed, shrink=24),
            points=tuple(
                Point(label, "pagerank", _pagerank_4x4(organization), 2)
                for label, organization in (
                    ("traditional", MOMS_TRADITIONAL),
                    ("two-level", MOMS_TWO_LEVEL),
                    ("shared", MOMS_SHARED),
                    ("private", MOMS_PRIVATE),
                )
            ),
        ),
        # The MSHR-starved regime: most cycles are fused bank retries, the
        # only place fusion and the vector kernels pay.
        Workload(
            name="pr-starved",
            topology=lambda seed: rmat_graph(11, edge_factor=16,
                                             seed=5 + seed),
            points=(Point("shared 1x1", "pagerank", _starved_config(), 1),),
        ),
        # The same layers used differently: 32-bit values updated in place
        # asynchronously, weighted edges through the ID pool, a frontier
        # driven by active flags, no MSHR-full stalls and mostly idle DRAM.
        # A change that speeds up PageRank's all-active stream at the
        # expense of this pattern shows here.
        Workload(
            name="sssp-web",
            topology=lambda seed: BENCHMARKS["UK"].generate(seed, shrink=24),
            points=(Point(
                "two-level 4x4", "sssp",
                ArchitectureConfig(
                    _design(4, 4, MOMS_TWO_LEVEL, "sssp", n_channels=2),
                    **SCALED_DEFAULTS,
                ),
            ),),
            weighted=True,
        ),
    )
}
