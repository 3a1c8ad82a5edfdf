"""Interval-based graph partitioning (paper Fig. 3, Section III-A).

Nodes are split into Qs source intervals of size Ns and Qd destination
intervals of size Nd; edges land in the shard E[s->d] given by their
endpoints' intervals.  The grouping is a counting sort over shard ids:
O(M), deliberately cheaper than the O(M log M) edge sorting that CSR
conversion would need -- the paper's central preprocessing claim.
"""

import numpy as np

from repro.graph.coo import Graph


def _ceil_div(a, b):
    return -(-a // b)


class Partitioning:
    """Edges of a graph grouped into Qs x Qd shards."""

    def __init__(self, graph, nodes_per_src_interval, nodes_per_dst_interval,
                 order, shard_offsets):
        self.graph = graph
        self.n_src = nodes_per_src_interval
        self.n_dst = nodes_per_dst_interval
        self.q_src = _ceil_div(graph.n_nodes, nodes_per_src_interval)
        self.q_dst = _ceil_div(graph.n_nodes, nodes_per_dst_interval)
        self._order = order  # edge indices grouped by shard
        self._offsets = shard_offsets  # len q_src*q_dst + 1

    def shard_index(self, s, d):
        return s * self.q_dst + d

    def shard(self, s, d):
        """(src, dst[, weights]) arrays of shard E[s->d], original labels."""
        index = self.shard_index(s, d)
        edge_ids = self._order[self._offsets[index]:self._offsets[index + 1]]
        if self.graph.weighted:
            return (self.graph.src[edge_ids], self.graph.dst[edge_ids],
                    self.graph.weights[edge_ids])
        return self.graph.src[edge_ids], self.graph.dst[edge_ids]

    def shard_size(self, s, d):
        index = self.shard_index(s, d)
        return int(self._offsets[index + 1] - self._offsets[index])

    def shard_sizes(self):
        """(q_src, q_dst) matrix of edge counts."""
        return np.diff(self._offsets).reshape(self.q_src, self.q_dst)

    def dst_interval_edge_counts(self):
        """In-edges per destination interval (job sizes; load balance)."""
        return self.shard_sizes().sum(axis=0)

    def src_interval_of(self, node):
        return node // self.n_src

    def dst_interval_of(self, node):
        return node // self.n_dst

    def dst_interval_bounds(self, d):
        """[lo, hi) node range of destination interval *d*."""
        lo = d * self.n_dst
        return lo, min(lo + self.n_dst, self.graph.n_nodes)

    @property
    def n_shards(self):
        return self.q_src * self.q_dst


def partition_edges(graph, nodes_per_src_interval, nodes_per_dst_interval):
    """Partition *graph*'s edges into shards in O(M).

    Uses numpy's radix sort on integer shard ids (stable, linear) to
    group edge indices; per-shard offsets come from a bincount.
    """
    if nodes_per_src_interval < 1 or nodes_per_dst_interval < 1:
        raise ValueError("interval sizes must be positive")
    q_dst = _ceil_div(graph.n_nodes, nodes_per_dst_interval)
    q_src = _ceil_div(graph.n_nodes, nodes_per_src_interval)
    shard_ids = (
        graph.src // nodes_per_src_interval * q_dst
        + graph.dst // nodes_per_dst_interval
    )
    order = np.argsort(shard_ids, kind="stable")
    counts = np.bincount(shard_ids, minlength=q_src * q_dst)
    offsets = np.zeros(q_src * q_dst + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Partitioning(graph, nodes_per_src_interval,
                        nodes_per_dst_interval, order, offsets)
