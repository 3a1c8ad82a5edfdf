"""Traced systems stay snapshot-safe (save, restore, resume)."""

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.checkpoint import Checkpointer, load_snapshot, save_snapshot
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.tracing import SpansConfig

GRAPH = web_graph(900, 4500, seed=11)


def _traced_system():
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    return AcceleratorSystem(
        GRAPH, "pagerank", config, spans=SpansConfig(sample_rate=8)
    )


class TestSnapshotProtocol:
    def test_snapshot_resume_preserves_span_stream(self, tmp_path):
        """A traced run snapshotted mid-flight resumes bit-identically.

        The resumed half must keep matching in-flight spans (deque
        identity across pickle) and produce the same span records as an
        uninterrupted run.
        """
        straight = _traced_system()
        straight_result = straight.run(max_iterations=1)
        reference = straight.tracer.spans

        system = _traced_system()
        path = str(tmp_path / "traced.snap")
        Checkpointer(path, interval=5000).attach(system)
        system.run(max_iterations=1)
        assert system.engine.checkpointer.last_path is not None

        restored, _header = load_snapshot(path)
        result = restored.resume_run()
        assert result.cycles == straight_result.cycles
        assert reference
        assert restored.tracer.spans == reference

    def test_save_restore_keeps_line_owner_identity(self, tmp_path):
        """The fill-channel -> bank map must survive pickling by
        reference (it keys on channel object identity)."""
        system = _traced_system()
        path = str(tmp_path / "fresh.snap")
        save_snapshot(system, path)
        restored, _header = load_snapshot(path)
        tracer = restored.tracer
        for bank in restored.hierarchy.banks:
            assert tracer._line_owner.get(bank.line_in) == bank.name
