"""Architecture configuration: paper design points + simulator scaling.

An :class:`ArchitectureConfig` couples the *paper-scale* structural
description (used by the area and frequency models, e.g. 4,096 MSHRs
and 256 KiB caches per bank) with the simulator-scale parameters the
cycle model actually instantiates (scaled by ``structure_scale``, with
1,024-node destination intervals instead of 32,768 -- see DESIGN.md
Section 5).

:func:`named_architectures` provides the design points of paper
Fig. 11: shared, private, two-level MOMSes and the traditional
non-blocking cache baseline, at several PE/bank counts.
"""

from dataclasses import dataclass, field

from repro.fabric.design import (
    MOMS_PRIVATE,
    MOMS_SHARED,
    MOMS_TRADITIONAL,
    MOMS_TWO_LEVEL,
    DesignDescription,
)
from repro.mem.dram import DramTimings


@dataclass
class ArchitectureConfig:
    """One runnable design point."""

    design: DesignDescription
    # Simulator scaling of MSHR/subentry structures; cache arrays are
    # scaled further (see HierarchySizes.from_design) so they stay much
    # smaller than the node set, as in the paper.
    structure_scale: float = 1 / 64
    cache_scale: float = None
    # Interval sizes (paper: 32,768 dst nodes per PE buffer).  Scaled
    # so jobs stay 1-2 orders of magnitude more numerous than PEs.
    nodes_per_dst_interval: int = 256
    nodes_per_src_interval: int = 1024
    # Weighted-graph MOMS interface (paper: 8,192-slot state memory).
    id_pool_size: int = 512
    # PE DMA parameters.
    max_outstanding_edge_bursts: int = 4
    burst_bytes: int = 2048
    dma_queue_beats: int = 64
    init_nodes_per_cycle: int = 4
    dram_timings: DramTimings = field(default_factory=DramTimings)
    # Interval clamp: keep at least this many jobs per PE on small
    # graphs (dynamic balancing needs job surplus).  Set to 1 to study
    # the scarce-job regime where hash relabeling becomes critical.
    min_jobs_per_pe: int = 4

    @property
    def name(self):
        return self.design.label

    def scaled_for(self, graph):
        """Clamp interval sizes so jobs stay plentiful on small graphs.

        The paper relies on jobs being 1-2 orders of magnitude more
        numerous than PEs for dynamic load balancing; we guarantee at
        least ~4 jobs per PE (power-of-two intervals, multiples of a
        16-node cache line).
        """
        per_pe_target = max(
            16,
            graph.n_nodes // (self.min_jobs_per_pe * self.design.n_pes),
        )
        nd = min(
            self.nodes_per_dst_interval,
            _pow2_at_most(per_pe_target),
            _pow2_at_least(graph.n_nodes),
        )
        ns = min(self.nodes_per_src_interval,
                 max(4 * nd, _pow2_at_least(graph.n_nodes) // 4))
        ns = max(ns, nd)
        if nd == self.nodes_per_dst_interval and \
                ns == self.nodes_per_src_interval:
            return self
        clone = ArchitectureConfig(**{**self.__dict__})
        clone.nodes_per_dst_interval = nd
        clone.nodes_per_src_interval = ns
        return clone


def _pow2_at_least(n):
    power = 16
    while power < n:
        power *= 2
    return power


def _pow2_at_most(n):
    power = 16
    while power * 2 <= n:
        power *= 2
    return power


SCALED_DEFAULTS = dict(
    structure_scale=1 / 64,
    nodes_per_dst_interval=256,
    nodes_per_src_interval=1024,
)


def _design(n_pes, n_banks, organization, algorithm, n_channels=4,
            private_cache_kib=0, shared_cache_kib=256, **extra):
    node_bits = 64 if algorithm == "pagerank" else 32
    return DesignDescription(
        n_pes=n_pes,
        n_banks=n_banks,
        organization=organization,
        algorithm=algorithm,
        n_channels=n_channels,
        weighted=algorithm == "sssp",
        private_cache_kib=private_cache_kib,
        shared_cache_kib=shared_cache_kib,
        node_bits=node_bits,
        **extra,
    )


def named_architectures(algorithm="pagerank", n_channels=4):
    """The design points explored in paper Fig. 11.

    Labels follow the paper's X/Y Zk convention: X PEs, Y shared MOMS
    banks, Z KiB of private cache per PE.
    """
    architectures = {
        "16/16 shared": ArchitectureConfig(
            _design(16, 16, MOMS_SHARED, algorithm, n_channels),
            **SCALED_DEFAULTS,
        ),
        "16 private 256k": ArchitectureConfig(
            _design(16, 0, MOMS_PRIVATE, algorithm, n_channels,
                    private_cache_kib=256),
            **SCALED_DEFAULTS,
        ),
        "16/16 two-level": ArchitectureConfig(
            _design(16, 16, MOMS_TWO_LEVEL, algorithm, n_channels),
            **SCALED_DEFAULTS,
        ),
        "18/16 two-level 64k": ArchitectureConfig(
            _design(18, 16, MOMS_TWO_LEVEL, algorithm, n_channels,
                    private_cache_kib=64),
            **SCALED_DEFAULTS,
        ),
        "20/8 two-level": ArchitectureConfig(
            _design(20, 8, MOMS_TWO_LEVEL, algorithm, n_channels),
            **SCALED_DEFAULTS,
        ),
        "18/16 traditional": ArchitectureConfig(
            _design(18, 16, MOMS_TRADITIONAL, algorithm, n_channels,
                    private_cache_kib=256),
            **SCALED_DEFAULTS,
        ),
    }
    return architectures
