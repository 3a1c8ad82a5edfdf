"""Tests for algorithm specs, the template interpreter, and references."""

import struct

import networkx as nx
import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.accel.algorithms import (
    DAMPING,
    INFINITY,
    bfs_spec,
    bits_to_f32,
    get_spec,
    pagerank_spec,
    scc_spec,
    sssp_spec,
)
from repro.baselines.reference import (
    reference_bfs,
    reference_min_label,
    reference_pagerank,
    reference_sssp,
    run_template_reference,
)
from repro.graph import Graph, web_graph


def small_graph(seed=3):
    return web_graph(300, 1800, seed=seed)


class TestSpecs:
    def test_table1_parameters(self):
        """The control knobs match paper Table I."""
        pr, scc, sssp = pagerank_spec(), scc_spec(), sssp_spec()
        assert not pr.use_local_src and pr.always_active and pr.synchronous
        assert scc.use_local_src and not scc.always_active
        assert not scc.synchronous
        assert sssp.use_local_src and sssp.weighted
        assert pr.gather_latency == 4
        assert scc.gather_latency == 1
        assert pr.use_const and not scc.use_const
        assert pr.bram_node_bits == 64 and scc.bram_node_bits == 32

    def test_get_spec_lookup(self):
        assert get_spec("pagerank").name == "pagerank"
        assert get_spec("sssp", source=5).initial_values(
            small_graph()
        )[5] == 0
        with pytest.raises(ValueError):
            get_spec("pagerankx")

    def test_pagerank_codec_round_trip(self):
        spec = pagerank_spec()
        for value in (0.0, 1.5, 1e-7, 3.25):
            assert spec.decode(spec.encode(value)) == pytest.approx(
                value, rel=1e-6
            )

    def test_bits_to_f32_matches_numpy_view(self):
        """The struct decode gives the numpy scalar view's double on
        random 32-bit patterns, NaNs compared by their bits."""
        words = np.random.default_rng(7).integers(
            0, 1 << 32, size=20_000, dtype=np.uint64).tolist()
        words += [0x7F800001, 0x7FBFFFFF, 0x7FC00000, 0xFFC00001,
                  0x7F800000, 0xFF800000, 0x80000000, 0]
        double = struct.Struct("=d")
        for word in words:
            want = float(np.uint32(word).view(np.float32))
            assert double.pack(bits_to_f32(word)) == double.pack(want), \
                hex(word)

    def test_pagerank_initial_values_normalized(self):
        g = Graph(4, [0, 0, 1], [1, 2, 3])
        spec = pagerank_spec()
        y = spec.initial_values(g).view(np.float32)
        # Node 0: degree 2 -> y = 0.85 * (1/4) / 2.
        assert y[0] == pytest.approx(DAMPING * 0.25 / 2)
        # Sink nodes store 0 (never read as sources).
        assert y[2] == 0 and y[3] == 0

    def test_sssp_gather_saturates(self):
        spec = sssp_spec()
        assert spec.gather(INFINITY, INFINITY, 200) == INFINITY
        assert spec.gather(INFINITY - 1, INFINITY, 200) == INFINITY
        assert spec.gather(5, 100, 7) == 12
        assert spec.gather(5, 3, 7) == 3

    def test_scc_gather_is_min(self):
        spec = scc_spec()
        assert spec.gather(3, 7, 0) == 3
        assert spec.gather(9, 7, 0) == 7


class TestReferences:
    def test_pagerank_matches_networkx_ranking(self):
        """Same top-k ordering as networkx pagerank (semantics differ
        slightly on dangling mass, so compare rankings not values)."""
        g = small_graph()
        ours = reference_pagerank(g, n_iterations=30)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(g.n_nodes))
        nxg.add_edges_from(zip(g.src.tolist(), g.dst.tolist()))
        theirs = nx.pagerank(nxg, alpha=DAMPING, max_iter=200)
        top_ours = set(np.argsort(ours)[-10:].tolist())
        top_theirs = set(
            sorted(theirs, key=theirs.get)[-10:]
        )
        assert len(top_ours & top_theirs) >= 7

    def test_pagerank_scores_are_probability_like(self):
        g = small_graph()
        scores = reference_pagerank(g, 20)
        assert (scores > 0).all()

    def test_min_label_matches_reachability(self):
        """Label of v == min node id that can reach v (including v)."""
        g = Graph(6, [0, 1, 2, 4], [1, 2, 0, 5])
        labels, _ = reference_min_label(g)
        # 0,1,2 form a cycle -> all get 0; 3 isolated; 5 <- 4.
        assert list(labels) == [0, 0, 0, 3, 4, 4]

    def test_sssp_matches_scipy_dijkstra(self):
        g = small_graph().with_weights(np.random.default_rng(4))
        # Our generators emit multigraphs; csr_matrix sums parallel
        # edges while Bellman-Ford takes their min, so deduplicate
        # keeping the minimum weight.  Weights are bumped by 1 because
        # csr treats explicit zeros as missing edges.
        keys = g.src * g.n_nodes + g.dst
        order = np.lexsort((g.weights, keys))
        unique_mask = np.ones(len(keys), dtype=bool)
        unique_mask[1:] = keys[order][1:] != keys[order][:-1]
        keep = order[unique_mask]
        g2 = Graph(g.n_nodes, g.src[keep], g.dst[keep],
                   g.weights[keep] + 1)
        dist2, _ = reference_sssp(g2, source=0)
        matrix2 = csr_matrix(
            (np.asarray(g2.weights, dtype=np.float64), (g2.src, g2.dst)),
            shape=(g2.n_nodes, g2.n_nodes),
        )
        scipy_dist = dijkstra(matrix2, indices=0)
        reachable = np.isfinite(scipy_dist)
        assert np.array_equal(
            dist2[reachable], scipy_dist[reachable].astype(np.int64)
        )
        assert (dist2[~reachable] == INFINITY).all()

    def test_bfs_distances(self):
        g = Graph(5, [0, 1, 2, 0], [1, 2, 3, 4])
        dist, _ = reference_bfs(g, source=0)
        assert list(dist) == [0, 1, 2, 3, 1]


class TestTemplateInterpreter:
    def test_pagerank_template_matches_vector_reference(self):
        g = small_graph()
        values, iters = run_template_reference(
            get_spec("pagerank"), g, max_iterations=5,
            nodes_per_src_interval=64, nodes_per_dst_interval=32,
        )
        expected = reference_pagerank(g, 5)
        assert iters == 5
        np.testing.assert_allclose(values, expected, rtol=1e-4)

    def test_scc_template_converges_to_fixpoint(self):
        g = small_graph(seed=9)
        values, iters = run_template_reference(
            get_spec("scc"), g, nodes_per_src_interval=128,
            nodes_per_dst_interval=64,
        )
        expected, _ = reference_min_label(g)
        assert np.array_equal(values.astype(np.int64), expected)

    def test_sssp_template_matches_bellman_ford(self):
        g = small_graph(seed=5).with_weights(np.random.default_rng(6))
        values, _ = run_template_reference(
            get_spec("sssp", source=0), g,
            nodes_per_src_interval=128, nodes_per_dst_interval=64,
        )
        expected, _ = reference_sssp(g, 0)
        assert np.array_equal(values.astype(np.int64), expected)

    def test_async_converges_faster_or_equal(self):
        """use_local_src + async propagates within an interval in one
        pass, so the template typically needs fewer sweeps than the
        synchronous fixpoint reference."""
        g = small_graph(seed=7)
        _, ref_iters = reference_min_label(g)
        _, template_iters = run_template_reference(
            get_spec("scc"), g, nodes_per_src_interval=512,
            nodes_per_dst_interval=512,
        )
        assert template_iters <= ref_iters

    def test_interval_shapes_do_not_change_results(self):
        g = small_graph(seed=8)
        results = []
        for ns, nd in [(64, 32), (128, 128), (512, 64)]:
            values, _ = run_template_reference(
                get_spec("scc"), g, nodes_per_src_interval=ns,
                nodes_per_dst_interval=nd,
            )
            results.append(values)
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[1], results[2])
