"""Byte pins for the per-run export files.

One run on the determinism workload (``web_graph(900, 4500,
seed=11)``, PageRank, two-level 4x4, two iterations) with both
observers attached: telemetry sampling every 64 cycles and the span
tracer at rate 8.  Each writer's output, the merged Perfetto timeline
included, is pinned by SHA-256, so a refactor of the exporters cannot
silently change what they write.

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
from repro.telemetry.export import write_summary_json, write_timeline_jsonl
from repro.timeline import write_trace
from repro.tracing import SpansConfig
from repro.tracing.export import spans_jsonl_bytes, write_span_summary

#: Fixed ``extra`` block merged into the telemetry summary.
SUMMARY_EXTRA = {"graph": "web900", "algorithm": "pagerank"}

PINS = {
    "timeline.jsonl":
        "9b31bc785065a0c74ada147d49aaecdd09167673f8bc57ea30940a91da0af9b4",
    "summary.json":
        "b2bc8cd074fff4df1cc6305e1e338aff41a0df1dae9d69c326595a809f954179",
    "spans.jsonl":
        "ed47b4fd8316f502ac9b7b68a154f21db224311e0fcbb8ab900ed078808171ca",
    "spansummary.json":
        "3ec2fa8e3e5afa0dde6880d138a3f15d39544662181fa9673f9daa7aaeb9a56f",
    "trace.json":
        "d13fabd416e25cfc9b771880259e78c2aacf7c5c507b183fafcb184e702ee65c",
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
    system, result = _run()
    paths = {name: directory / name for name in PINS}
    write_timeline_jsonl(system.telemetry, paths["timeline.jsonl"])
    write_summary_json(system.telemetry, paths["summary.json"],
                       extra=SUMMARY_EXTRA)
    paths["spans.jsonl"].write_bytes(spans_jsonl_bytes(system.tracer))
    write_span_summary(result.stats["spans"], paths["spansummary.json"])
    write_trace(paths["trace.json"], system.telemetry, system.tracer)
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
