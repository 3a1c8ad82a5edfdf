"""Byte pin for the one file an observed run writes.

One run on the determinism workload (``web_graph(900, 4500,
seed=11)``, PageRank, two-level 4x4, two iterations) with both
observers attached: telemetry sampling every 64 cycles and the span
tracer at rate 8.  Its Perfetto timeline -- counters, phases, request
flows and span records, and the summaries in ``otherData`` -- is
pinned by SHA-256, so a refactor of the exporter cannot silently
change what it writes.

Re-pin only for an intended format or model change::

    PYTHONPATH=src python -m tests.golden.test_export_pins
"""

import hashlib

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.telemetry import TelemetryConfig
from repro.timeline import write_trace
from repro.tracing import SpansConfig

#: Fixed run identity stored in ``otherData``.
RUN = {"graph": "web900", "algorithm": "pagerank"}

PINS = {
    "trace.json":
        "9dc40b4fa158adb89778119031c5e6ee85a4837d7c6c4dfcf73c9f73a676b0a6",
}


def _run():
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        web_graph(900, 4500, seed=11), "pagerank", config,
        telemetry=TelemetryConfig(sample_interval=64),
        spans=SpansConfig(sample_rate=8),
    )
    result = system.run(max_iterations=2)
    return system, result


def export_digests(directory):
    """SHA-256 of every pinned export, written under *directory*."""
    system, _result = _run()
    paths = {name: directory / name for name in PINS}
    write_trace(paths["trace.json"], system.telemetry, system.tracer,
                run=RUN)
    return {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in paths.items()
    }


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return export_digests(tmp_path_factory.mktemp("exports"))


@pytest.mark.parametrize("name", sorted(PINS))
def test_export_bytes_pinned(digests, name):
    assert digests[name] == PINS[name]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for name, digest in export_digests(pathlib.Path(scratch)).items():
            print(f'    "{name}":\n        "{digest}",')
