"""Template 1: the configurable edge-centric programming model.

A graph algorithm is described by three functions -- ``init()``,
``gather()``, ``apply()`` -- plus initial node values, an optional
per-node constant vector (V_const), a global constant, and two control
flags (``use_local_src``, ``always_active``), exactly as in the paper's
Table I.  Values cross four representations:

* DRAM words: raw uint32 bit patterns (what the MOMS returns),
* BRAM scalars: the working value held per destination node,
* V_const scalars: read-only per-node constants loaded at init,
* host values: what :meth:`finalize` reports to the user.

The same spec drives both the cycle-accurate accelerator and the pure
software reference executor (:mod:`repro.baselines.reference`), so
functional equivalence is checked end to end.
"""

import pickle
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class AlgorithmSpec:
    """Algorithm-specific parameters of Template 1 (paper Table I)."""

    name: str
    weighted: bool
    use_local_src: bool
    always_active: bool
    synchronous: bool
    gather_latency: int  # pipeline depth; 4 for fp PageRank, 1 for int ops
    use_const: bool
    node_bytes: int = 4
    bram_node_bits: int = 32  # 64 for PageRank (score + out-degree)

    # Functional hooks (scalar domain).
    init: Callable = None          # (const_c, v_dram) -> bram value
    gather: Callable = None        # (u, v_bram, w) -> new bram value
    apply: Callable = None         # (v_bram, const_c) -> dram value
    decode: Callable = None        # uint32 word -> scalar
    encode: Callable = None        # scalar -> uint32 word
    initial_values: Callable = None  # (graph, **kw) -> uint32 array
    const_values: Optional[Callable] = None  # (graph) -> uint32 array
    finalize: Callable = None      # (dram uint32 array, graph) -> host array
    global_const: Callable = None  # (graph) -> scalar passed to init

    # Columnar forms of the per-node hooks, bit-identical element for
    # element -- the only forms the PE runs.  A spec that omits one gets
    # it derived from the per-node hooks at construction (see
    # __post_init__).
    init_vec: Optional[Callable] = None
    """(const float64 slice, dram uint32 words) -> float64 BRAM values."""
    apply_enc_vec: Optional[Callable] = None
    """(bram float64, const float64, base scalar) -> uint32 DRAM words."""

    # Rebuild recipe for serialization: ``(name, kwargs)`` resolvable by
    # :func:`repro.accel.algorithms.get_spec`.  The functional hooks are
    # closures and lambdas, which do not pickle, so snapshots store the
    # recipe and rebuild the spec on load instead (the factories are
    # deterministic, so the rebuilt hooks are behaviourally identical).
    # ``get_spec`` fills this in; hand-built specs stay unpicklable and
    # get a clear error at snapshot time.
    recipe: Optional[tuple] = None

    def __post_init__(self):
        # The derived forms run the per-node hooks element by element in
        # node order, exactly the loop a PE would run over them.
        if self.init_vec is None:
            init, decode = self.init, self.decode

            def init_vec(const, words):
                values = np.zeros(len(words), dtype=np.float64)
                for i, word in enumerate(words.tolist()):
                    values[i] = init(const[i], decode(word))
                return values

            self.init_vec = init_vec
        if self.apply_enc_vec is None:
            apply, encode = self.apply, self.encode

            def apply_enc_vec(bram, const, base):
                words = np.zeros(len(bram), dtype=np.uint32)
                for i in range(len(bram)):
                    words[i] = encode(apply(bram[i], const[i], base))
                return words

            self.apply_enc_vec = apply_enc_vec

    def __reduce__(self):
        if not self.recipe:
            raise pickle.PicklingError(
                f"AlgorithmSpec {self.name!r} carries closure hooks and no "
                f"rebuild recipe; build it via "
                f"repro.accel.algorithms.get_spec (or set spec.recipe to "
                f"(name, kwargs)) to make it snapshot-safe"
            )
        name, kwargs = self.recipe
        return (_rebuild_spec, (name, tuple(sorted(kwargs.items()))))

    def initial_dram_image(self, graph, **kwargs):
        """V_DRAM,in as a uint32 array (raw bits)."""
        values = self.initial_values(graph, **kwargs)
        if values.dtype != np.uint32:
            raise TypeError("initial_values must return raw uint32 words")
        return values

    def const_dram_image(self, graph):
        if not self.use_const:
            return None
        values = self.const_values(graph)
        if values.dtype != np.uint32:
            raise TypeError("const_values must return raw uint32 words")
        return values

    def const_scalar(self, graph):
        return self.global_const(graph) if self.global_const else 0.0


def _rebuild_spec(name, items):
    """Unpickle helper: rebuild a spec from its ``get_spec`` recipe."""
    from repro.accel.algorithms import get_spec

    return get_spec(name, **dict(items))


def updated_flag(spec, old_bram, new_bram):
    """Line 16 of Template 1: did this gather change the destination?"""
    if spec.always_active:
        return True
    return new_bram != old_bram
