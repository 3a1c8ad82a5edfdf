"""Synthetic stand-ins for the paper's Table II benchmark suite.

The real graphs (2.4M-118M nodes, up to 2B edges) do not fit a Python
cycle simulator, so each benchmark is generated at roughly 1/1000 scale
with the *character* that drives the paper's results preserved:

* degree distribution (power-law exponents, average degree),
* label locality (web crawls keep communities adjacent in the label
  space; social networks and RMAT ship with scrambled labels), and
* relative size ordering of the suite.

Average degrees of the densest graphs are compressed (the simulator's
cost is O(M)); DESIGN.md documents this substitution.  All graphs are
deterministic in their name.
"""

import zlib
from dataclasses import dataclass

from repro.graph.generators import rmat_graph, social_graph, web_graph


@dataclass(frozen=True)
class BenchmarkSpec:
    """Recipe for one Table II stand-in."""

    key: str
    full_name: str
    kind: str  # 'web' | 'social' | 'rmat'
    n_nodes: int
    n_edges: int
    locality: float = 0.9
    alpha: float = 0.7
    rmat_scale: int = 0
    rmat_edge_factor: int = 8
    paper_nodes: str = ""
    paper_edges: str = ""
    paper_n: int = 0  # numeric paper-scale sizes (GPU capacity checks)
    paper_m: int = 0

    def generate(self, seed_offset=0, shrink=1):
        """Build the graph; ``shrink`` divides N and M (bench-scale runs)."""
        # zlib.crc32 is stable across processes (builtin hash() is salted).
        seed = (zlib.crc32(self.key.encode()) % 100_000) + seed_offset
        if shrink > 1:
            spec = self._shrunk(shrink)
            return spec.generate(seed_offset)
        if self.kind == "web":
            graph = web_graph(self.n_nodes, self.n_edges,
                              locality=self.locality, alpha=self.alpha,
                              seed=seed, name=self.key)
        elif self.kind == "social":
            graph = social_graph(self.n_nodes, self.n_edges,
                                 alpha=self.alpha, locality=self.locality,
                                 seed=seed, name=self.key)
        elif self.kind == "rmat":
            graph = rmat_graph(self.rmat_scale,
                               edge_factor=self.rmat_edge_factor,
                               seed=seed, name=self.key)
        else:
            raise ValueError(f"unknown benchmark kind {self.kind!r}")
        return graph

    def _shrunk(self, shrink):
        """A proportionally smaller spec with the same character."""
        import dataclasses
        import math
        if self.kind == "rmat":
            # Edge count scales as 2^scale: dropping log2(shrink) levels
            # divides M by shrink, matching the other families.
            scale_drop = max(1, round(math.log2(shrink)))
            return dataclasses.replace(
                self,
                rmat_scale=max(8, self.rmat_scale - scale_drop),
                n_nodes=1 << max(8, self.rmat_scale - scale_drop),
                n_edges=(1 << max(8, self.rmat_scale - scale_drop))
                * self.rmat_edge_factor,
            )
        return dataclasses.replace(
            self,
            n_nodes=max(1024, self.n_nodes // shrink),
            n_edges=max(4096, self.n_edges // shrink),
        )


BENCHMARKS = {
    # Sparse, skewed talk network; moderate locality.
    "WT": BenchmarkSpec("WT", "wiki-Talk", "web", 16_384, 36_000,
                        locality=0.55, alpha=0.85,
                        paper_nodes="2.39M", paper_edges="5.02M", paper_n=2_390_000, paper_m=5_020_000),
    # Mid-sized encyclopedia link graph, communities preserved.
    "DB": BenchmarkSpec("DB", "dbpedia-link", "web", 18_432, 150_000,
                        locality=0.7, alpha=0.75,
                        paper_nodes="18.3M", paper_edges="172M", paper_n=18_300_000, paper_m=172_000_000),
    # Web crawls: strong label locality (crawl order), dense.
    "UK": BenchmarkSpec("UK", "uk-2005", "web", 20_480, 190_000,
                        locality=0.92, alpha=0.7,
                        paper_nodes="39.5M", paper_edges="936M", paper_n=39_500_000, paper_m=936_000_000),
    "IT": BenchmarkSpec("IT", "it-2004", "web", 20_480, 210_000,
                        locality=0.94, alpha=0.7,
                        paper_nodes="41.3M", paper_edges="1.15B", paper_n=41_300_000, paper_m=1_150_000_000),
    "SK": BenchmarkSpec("SK", "sk-2005", "web", 24_576, 250_000,
                        locality=0.95, alpha=0.72,
                        paper_nodes="50.6M", paper_edges="1.95B", paper_n=50_600_000, paper_m=1_950_000_000),
    # Social networks: same structure, scrambled labels.
    "MP": BenchmarkSpec("MP", "twitter_mpi", "social", 26_624, 240_000,
                        locality=0.35, alpha=0.9,
                        paper_nodes="52.6M", paper_edges="1.96B", paper_n=52_600_000, paper_m=1_960_000_000),
    "RV": BenchmarkSpec("RV", "twitter_rv", "social", 30_720, 220_000,
                        locality=0.35, alpha=0.88,
                        paper_nodes="61.6M", paper_edges="1.47B", paper_n=61_600_000, paper_m=1_470_000_000),
    "FR": BenchmarkSpec("FR", "com-friendster", "social", 32_768, 260_000,
                        locality=0.35, alpha=0.82,
                        paper_nodes="65.6M", paper_edges="1.81B", paper_n=65_600_000, paper_m=1_810_000_000),
    # Shallow, very wide web crawl.
    "WB": BenchmarkSpec("WB", "webbase-2001", "web", 49_152, 200_000,
                        locality=0.88, alpha=0.7,
                        paper_nodes="118M", paper_edges="1.02B", paper_n=118_000_000, paper_m=1_020_000_000),
    # R-MAT synthetic graphs (Graph500-style).
    "24": BenchmarkSpec("24", "RMAT-24", "rmat", 1 << 13, (1 << 13) * 8,
                        rmat_scale=13,
                        paper_nodes="16.8M", paper_edges="268M",
                        paper_n=16_800_000, paper_m=268_000_000),
    "25": BenchmarkSpec("25", "RMAT-25", "rmat", 1 << 14, (1 << 14) * 8,
                        rmat_scale=14,
                        paper_nodes="33.6M", paper_edges="537M",
                        paper_n=33_600_000, paper_m=537_000_000),
    "26": BenchmarkSpec("26", "RMAT-26", "rmat", 1 << 15, (1 << 15) * 8,
                        rmat_scale=15,
                        paper_nodes="67.1M", paper_edges="1.07B",
                        paper_n=67_100_000, paper_m=1_070_000_000),
}

# The subset used by default in benchmark runs (one per family plus the
# extremes); set REPRO_FULL_SUITE=1 to sweep everything.
DEFAULT_SUITE = ("WT", "DB", "UK", "RV", "24")

# Graphs whose shipped labeling destroys communities; DBG reordering is
# expected to help exactly these (paper Fig. 13).
SCRAMBLED_LABELS = ("MP", "RV", "FR", "24", "25", "26")

_cache = {}


def load_benchmark(key, seed_offset=0, shrink=1):
    """Generate (and memoize) one benchmark graph by its Table II key.

    ``shrink`` > 1 returns a proportionally smaller graph with the same
    character -- used by the benchmark harness so a default
    ``pytest benchmarks/`` run finishes quickly (the full-size suite
    runs with REPRO_FULL_SUITE=1).
    """
    cache_key = (key, seed_offset, shrink)
    graph = _cache.get(cache_key)
    if graph is None:
        graph = BENCHMARKS[key].generate(seed_offset, shrink=shrink)
        _cache[cache_key] = graph
    return graph


def suite(keys=None, shrink=1):
    """Yield (key, graph) pairs for the chosen subset (default: all)."""
    for key in keys or BENCHMARKS:
        yield key, load_benchmark(key, shrink=shrink)
