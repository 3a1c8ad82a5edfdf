"""Tests for shard partitioning and the compressed edge encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    EdgeCodec,
    Graph,
    pack_edge_pointer,
    partition_edges,
    unpack_edge_pointer,
    web_graph,
)


def paper_fig3_graph():
    """The 8-node example of paper Fig. 3 (Ns=4, Nd=2)."""
    edges = [(0, 1), (0, 5), (1, 4), (2, 3), (4, 2), (5, 6), (6, 0), (7, 7)]
    src, dst = zip(*edges)
    return Graph(8, src, dst)


class TestPartitioning:
    def test_fig3_shard_assignment(self):
        g = paper_fig3_graph()
        part = partition_edges(g, 4, 2)
        assert part.q_src == 2 and part.q_dst == 4
        # Edge (0,1): src interval 0, dst interval 0.
        src, dst = part.shard(0, 0)
        assert (0, 1) in set(zip(src, dst))
        # Edge (5,6): src interval 1, dst interval 3.
        src, dst = part.shard(1, 3)
        assert (5, 6) in set(zip(src, dst))

    def test_every_edge_in_exactly_one_shard(self):
        g = paper_fig3_graph()
        part = partition_edges(g, 4, 2)
        collected = []
        for s in range(part.q_src):
            for d in range(part.q_dst):
                src, dst = part.shard(s, d)
                collected.extend(zip(src.tolist(), dst.tolist()))
        assert sorted(collected) == sorted(zip(g.src.tolist(), g.dst.tolist()))

    def test_shard_members_in_right_intervals(self):
        g = paper_fig3_graph()
        part = partition_edges(g, 4, 2)
        for s in range(part.q_src):
            for d in range(part.q_dst):
                src, dst = part.shard(s, d)
                assert all(src // 4 == s)
                assert all(dst // 2 == d)

    def test_shard_sizes_match(self):
        g = paper_fig3_graph()
        part = partition_edges(g, 4, 2)
        assert part.shard_sizes().sum() == g.n_edges
        assert part.dst_interval_edge_counts().sum() == g.n_edges

    def test_relabeled_graph_partitions_its_own_edges(self):
        g = web_graph(300, 1200, seed=11)
        relabeled = g.relabel(np.arange(g.n_nodes)[::-1].copy())
        part = partition_edges(relabeled, 32, 32)
        offsets = part._offsets
        assert offsets[0] == 0 and offsets[-1] == g.n_edges
        assert np.all(np.diff(offsets) >= 0)
        assert part.shard_sizes().sum() == g.n_edges
        for s in range(part.q_src):
            for d in range(part.q_dst):
                src, dst = part.shard(s, d)
                assert all(src // 32 == s) and all(dst // 32 == d)

    def test_weighted_shards_carry_weights(self):
        g = paper_fig3_graph().with_weights(np.random.default_rng(1))
        part = partition_edges(g, 4, 2)
        src, dst, weights = part.shard(0, 0)
        assert len(weights) == len(src)

    def test_interval_bounds_clip_at_n(self):
        g = Graph(10, [0], [9])
        part = partition_edges(g, 4, 4)
        assert part.dst_interval_bounds(2) == (8, 10)

    def test_rejects_bad_interval_size(self):
        with pytest.raises(ValueError):
            partition_edges(paper_fig3_graph(), 0, 2)

    @given(st.integers(min_value=2, max_value=200),
           st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_partition_is_exhaustive_and_exclusive(self, n, m, ns, nd):
        """Property: shards tile the edge set for any parameters."""
        rng = np.random.default_rng(n * 1000 + m)
        g = Graph(n, rng.integers(0, n, m), rng.integers(0, n, m))
        part = partition_edges(g, ns, nd)
        total = 0
        for s in range(part.q_src):
            for d in range(part.q_dst):
                src, dst = part.shard(s, d)
                total += len(src)
                assert all(src // ns == s)
                assert all(dst // nd == d)
        assert total == m


class TestEdgeCodec:
    def test_round_trip_unweighted(self):
        codec = EdgeCodec(1 << 16, 1 << 15)
        src = np.array([0, 65535, 123])
        dst = np.array([32767, 0, 456])
        words = codec.encode_shard(src, dst)
        assert words.dtype == np.uint32
        assert len(words) == 4  # 3 edges + terminator
        out_src, out_dst = codec.decode_shard(words)
        assert np.array_equal(out_src, src)
        assert np.array_equal(out_dst, dst)

    def test_round_trip_weighted(self):
        codec = EdgeCodec(256, 256, weighted=True)
        src = np.array([1, 2])
        dst = np.array([3, 4])
        weights = np.array([100, 255])
        words = codec.encode_shard(src, dst, weights)
        out = codec.decode_shard(words)
        assert np.array_equal(out[0], src)
        assert np.array_equal(out[1], dst)
        assert np.array_equal(out[2], weights)

    def test_terminator_stops_decoding_of_padding(self):
        """Garbage after the terminator (DRAM word tail) is ignored."""
        codec = EdgeCodec(256, 256)
        words = codec.encode_shard(np.array([5]), np.array([6]))
        padded = np.concatenate(
            [words, np.array([0xDEAD, 0xBEEF], dtype=np.uint32)]
        )
        src, dst = codec.decode_shard(padded)
        assert list(src) == [5] and list(dst) == [6]

    def test_empty_shard_is_just_terminator(self):
        codec = EdgeCodec(256, 256)
        words = codec.encode_shard(np.array([], dtype=np.uint32),
                                   np.array([], dtype=np.uint32))
        assert len(words) == 1
        src, dst = codec.decode_shard(words)
        assert len(src) == 0

    def test_rejects_oversized_offsets(self):
        codec = EdgeCodec(16, 16)
        with pytest.raises(ValueError):
            codec.encode_shard(np.array([16]), np.array([0]))
        with pytest.raises(ValueError):
            codec.encode_shard(np.array([0]), np.array([16]))

    def test_rejects_oversized_intervals(self):
        with pytest.raises(ValueError):
            EdgeCodec(1 << 17, 16)
        with pytest.raises(ValueError):
            EdgeCodec(16, 1 << 16)

    def test_missing_terminator_detected(self):
        codec = EdgeCodec(256, 256)
        with pytest.raises(ValueError):
            codec.decode_shard(np.array([7], dtype=np.uint32))

    def test_32_bits_per_unweighted_edge(self):
        codec = EdgeCodec(1 << 16, 1 << 15)
        assert codec.shard_bytes(100) == 4 * 101

    def test_decode_word(self):
        codec = EdgeCodec(256, 256)
        words = codec.encode_shard(np.array([9]), np.array([13]))
        assert EdgeCodec.decode_word(words[0]) == (9, 13)
        assert not EdgeCodec.is_terminator(words[0])
        assert EdgeCodec.is_terminator(words[1])

    @given(st.lists(st.tuples(st.integers(0, 65535), st.integers(0, 32767),
                              st.integers(0, 255)), max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_weighted_round_trip_property(self, edges):
        codec = EdgeCodec(1 << 16, 1 << 15, weighted=True)
        if edges:
            src, dst, w = map(np.array, zip(*edges))
        else:
            src = dst = w = np.array([], dtype=np.uint32)
        out = codec.decode_shard(codec.encode_shard(src, dst, w))
        assert np.array_equal(out[0], src)
        assert np.array_equal(out[1], dst)
        assert np.array_equal(out[2], w)


class TestEdgePointer:
    def test_round_trip(self):
        value = pack_edge_pointer(0xABCDE0, 12345, True)
        assert unpack_edge_pointer(value) == (0xABCDE0, 12345, True)
        value = pack_edge_pointer(64, 0, False)
        assert unpack_edge_pointer(value) == (64, 0, False)

    def test_fits_64_bits(self):
        value = pack_edge_pointer((1 << 36) - 1, (1 << 27) - 1, True)
        assert int(value) < 1 << 64

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            pack_edge_pointer(1 << 36, 0, False)
        with pytest.raises(ValueError):
            pack_edge_pointer(0, 1 << 27, False)
