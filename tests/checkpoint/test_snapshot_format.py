"""Snapshot container: format, corruption, versioning, atomicity."""

import dataclasses
import json
import os
import pickle
import struct

import pytest

from repro.accel.algorithms import get_spec
from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.checkpoint import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_MAGIC,
    Checkpointer,
    SnapshotError,
    load_snapshot,
    read_header,
    save_snapshot,
)
from repro.graph import web_graph


@pytest.fixture(scope="module")
def system():
    graph = web_graph(200, 800, seed=3)
    config = ArchitectureConfig(
        _design(2, 2, "shared", "bfs", n_channels=2),
        **SCALED_DEFAULTS,
    )
    return AcceleratorSystem(graph, "bfs", config)


def _snap(system, tmp_path, name="a.snap"):
    path = str(tmp_path / name)
    save_snapshot(system, path)
    return path


class TestContainerFormat:
    def test_roundtrip_header(self, system, tmp_path):
        path = _snap(system, tmp_path)
        header = read_header(path)
        assert header["format"] == SNAPSHOT_FORMAT
        assert header["cycle"] == 0
        assert header["algorithm"] == "bfs"
        assert header["organization"] == "shared"
        assert header["payload_bytes"] > 0

    def test_roundtrip_load(self, system, tmp_path):
        path = _snap(system, tmp_path)
        restored, header = load_snapshot(path)
        assert restored.engine.now == system.engine.now
        assert restored.spec.name == system.spec.name
        assert header == read_header(path)

    def test_meta_merged_into_header(self, system, tmp_path):
        path = str(tmp_path / "m.snap")
        save_snapshot(system, path, meta={"ordinal": 7})
        assert read_header(path)["ordinal"] == 7

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.snap")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SnapshotError, match="bad magic"):
            read_header(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = str(tmp_path / "short.snap")
        with open(path, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC + struct.pack(">I", 500) + b"{}")
        with pytest.raises(SnapshotError, match="truncated snapshot header"):
            read_header(path)

    def test_truncated_payload_rejected(self, system, tmp_path):
        path = _snap(system, tmp_path)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-64])
        with pytest.raises(SnapshotError, match="truncated or corrupted"):
            load_snapshot(path)

    def test_corrupted_payload_rejected_by_checksum(self, system, tmp_path):
        path = _snap(system, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-10] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            load_snapshot(path)

    def test_newer_format_rejected_with_pointer(self, system, tmp_path):
        path = _snap(system, tmp_path)
        with open(path, "rb") as fh:
            fh.read(len(SNAPSHOT_MAGIC))
            (blob_len,) = struct.unpack(">I", fh.read(4))
            header = json.loads(fh.read(blob_len))
            payload = fh.read()
        header["format"] = SNAPSHOT_FORMAT + 1
        blob = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC + struct.pack(">I", len(blob))
                     + blob + payload)
        with pytest.raises(SnapshotError, match="newer"):
            read_header(path)

    def test_header_readable_without_payload_decode(self, system, tmp_path):
        # read_header must not touch the payload at all: corrupt it and
        # the header still parses (triage on a damaged snapshot).
        path = _snap(system, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-10] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        assert read_header(path)["algorithm"] == "bfs"


def _crafted(tmp_path, **header):
    """A snapshot file with *header* merged into a minimal header and a
    payload that is not even zlib, so only a header check can reject it
    with a meaningful message."""
    path = str(tmp_path / "crafted.snap")
    payload = b"not a pickle"
    blob = json.dumps(dict({"format": 1, "cycle": 5, "algorithm": "bfs",
                            "organization": "shared",
                            "payload_bytes": len(payload)}, **header),
                      sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC + struct.pack(">I", len(blob)) + blob
                 + payload)
    return path


class TestRetiredStrategies:
    @pytest.mark.parametrize("key, value", [
        ("engine", "legacy"), ("kernels", "scalar"),
    ])
    def test_retired_header_rejected_before_unpickling(self, tmp_path,
                                                       key, value):
        path = _crafted(tmp_path, **{key: value})
        for reader in (read_header, load_snapshot):
            with pytest.raises(SnapshotError,
                               match=f"header {key}='{value}'"):
                reader(path)

    def test_supported_old_header_still_reads(self, tmp_path):
        path = _crafted(tmp_path, engine="demand", kernels="vector")
        assert read_header(path)["cycle"] == 5

    def test_new_snapshots_omit_the_keys(self, system, tmp_path):
        header = read_header(_snap(system, tmp_path))
        assert "engine" not in header and "kernels" not in header


class TestAtomicity:
    def test_no_temp_files_left_behind(self, system, tmp_path):
        _snap(system, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.snap"]

    def test_overwrite_in_place(self, system, tmp_path):
        path = _snap(system, tmp_path)
        first = read_header(path)
        save_snapshot(system, path, meta={"ordinal": 2})
        assert read_header(path)["ordinal"] == 2
        assert read_header(path)["sha256"] == first["sha256"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.snap"]


class TestDeterminism:
    def test_checkpointed_run_writes_identical_snapshots(self, tmp_path):
        # The checkpointer travels inside every snapshot after the
        # first, so any host-time field it kept would change the bytes.
        graph = web_graph(200, 800, seed=3)
        config = ArchitectureConfig(
            _design(2, 2, "shared", "bfs", n_channels=2),
            **SCALED_DEFAULTS,
        )
        spec = f"{tmp_path / 'run.snap'}:5000"
        digests = []
        for _ in range(2):
            run = AcceleratorSystem(graph, "bfs", config, checkpoint=spec)
            run.run()
            assert run.checkpointer.writes > 1
            digests.append(read_header(run.checkpointer.path)["sha256"])
        assert digests[0] == digests[1]


class TestCheckpointerSpec:
    def test_plain_path(self):
        cp = Checkpointer.from_spec("out/run.snap")
        assert cp.path == "out/run.snap"
        assert cp.interval == Checkpointer("x").interval

    def test_path_with_interval(self):
        cp = Checkpointer.from_spec("out/run.snap:500")
        assert (cp.path, cp.interval) == ("out/run.snap", 500)

    def test_colon_in_path_without_interval(self):
        cp = Checkpointer.from_spec("out:dir/run.snap")
        assert cp.path == "out:dir/run.snap"

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Checkpointer("x", interval=0)


class TestSnapshotProtocol:
    def test_spec_without_recipe_refuses_to_pickle(self):
        spec = dataclasses.replace(get_spec("bfs"), recipe=None)
        with pytest.raises(pickle.PicklingError, match="recipe"):
            pickle.dumps(spec)

    def test_spec_with_recipe_rebuilds(self):
        spec = get_spec("pagerank")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.name == spec.name
        assert clone.recipe == spec.recipe

    def test_unpicklable_state_reported_as_snapshot_error(
            self, system, tmp_path):
        system._poison = lambda: None
        try:
            with pytest.raises(SnapshotError, match="snapshot-safe"):
                save_snapshot(system, str(tmp_path / "p.snap"))
        finally:
            del system._poison
        assert not list(tmp_path.iterdir())  # failed write left nothing
