"""A spec with only per-node hooks (the public Template 1 surface).

``examples/custom_algorithm.py`` defines its algorithm with scalar
``init``/``apply``/``decode``/``encode`` hooks and no columnar forms;
``AlgorithmSpec`` derives ``init_vec`` and ``apply_enc_vec`` from them.
The first test pins cycles and values of such a spec end to end; the
second checks the derived hooks against the per-node loop bit for bit.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import SCALED_DEFAULTS, ArchitectureConfig, _design
from repro.accel.system import AcceleratorSystem
from repro.accel.template import AlgorithmSpec
from repro.baselines.reference import reference_min_label
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import Graph
from repro.graph.generators import social_graph


def wcc_spec():
    """Min-label propagation with per-node hooks only, as in the example."""
    return AlgorithmSpec(
        name="wcc",
        weighted=False,
        use_local_src=True,
        always_active=False,
        synchronous=False,
        gather_latency=1,
        use_const=False,
        node_bytes=4,
        init=lambda c, v: v,
        gather=lambda u, v, w: min(u, v),
        apply=lambda v, c, base: v,
        decode=int,
        encode=int,
        initial_values=lambda g: np.arange(g.n_nodes, dtype=np.uint32),
        finalize=lambda words, g: words.copy(),
    )


def pagerank_like_spec():
    """Float hooks that read the constant vector and the global constant."""
    return AlgorithmSpec(
        name="float-hooks",
        weighted=False,
        use_local_src=False,
        always_active=True,
        synchronous=True,
        gather_latency=4,
        use_const=True,
        init=lambda c, v: 0.5 * v + c,
        gather=lambda u, v, w: u + v,
        apply=lambda v, c, base: base + 0.85 * v / (c + 1.0),
        decode=lambda w: float(np.uint32(w).view(np.float32)),
        encode=lambda x: int(np.float32(x).view(np.uint32)),
    )


def _symmetric_graph():
    directed = social_graph(400, 1600, seed=41, name="collab")
    return Graph(
        directed.n_nodes,
        np.concatenate([directed.src, directed.dst]),
        np.concatenate([directed.dst, directed.src]),
        name="collab+sym",
    )


class TestCustomSpecEndToEnd:
    # Recorded with the PE's per-node init/apply loops, before the
    # columnar hooks were derived from them.
    CYCLES = 24_641
    VALUES_SHA = (
        "bf75ce6023e34c1b485bef5a38542d01b1e16e90d749871f50713fc8e48c4f2e"
    )

    def test_two_level_run_is_pinned(self):
        graph = _symmetric_graph()
        config = ArchitectureConfig(
            _design(4, 4, MOMS_TWO_LEVEL, "scc", 2), **SCALED_DEFAULTS
        )
        result = AcceleratorSystem(graph, wcc_spec(), config).run()
        values = np.ascontiguousarray(result.values, dtype=np.uint32)
        expected, _ = reference_min_label(graph)
        np.testing.assert_array_equal(values, expected)
        assert result.cycles == self.CYCLES
        assert hashlib.sha256(values.tobytes()).hexdigest() \
            == self.VALUES_SHA


_WORDS = st.lists(
    st.one_of(st.sampled_from([0, 0xFFFFFFFF]),
              st.integers(0, 0xFFFFFFFF)),
    min_size=1, max_size=40,
)


class TestDerivedHooks:
    """The derived columnar hooks equal the per-node loop bit for bit."""

    SPECS = (wcc_spec, pagerank_like_spec)

    @given(_WORDS, st.integers(0, 0xFFFFFFFF))
    @settings(max_examples=100, deadline=None)
    def test_init_vec_matches_per_node_loop(self, words, const_seed):
        words = np.array(words, dtype=np.uint32)
        const = np.random.default_rng(const_seed).random(len(words))
        for make in self.SPECS:
            spec = make()
            want = np.zeros(len(words), dtype=np.float64)
            for i, word in enumerate(words.tolist()):
                want[i] = spec.init(const[i], spec.decode(word))
            got = spec.init_vec(const, words)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    @given(_WORDS, st.integers(0, 0xFFFFFFFF))
    @settings(max_examples=100, deadline=None)
    def test_apply_enc_vec_matches_per_node_loop(self, words, const_seed):
        words = np.array(words, dtype=np.uint32)
        const = np.random.default_rng(const_seed).random(len(words))
        for make in self.SPECS:
            spec = make()
            bram = spec.init_vec(const, words)
            want = np.zeros(len(words), dtype=np.uint32)
            for i in range(len(words)):
                want[i] = spec.encode(spec.apply(bram[i], const[i], 0.25))
            got = spec.apply_enc_vec(bram, const, 0.25)
            assert got.dtype == np.uint32
            assert got.tobytes() == want.tobytes()
