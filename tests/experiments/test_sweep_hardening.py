"""Hardened sweep runner: validation, crash isolation, journal resume."""

import hashlib
import json
import os
import signal

import numpy as np
import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.checkpoint import Checkpointer
from repro.experiments import common
from repro.experiments.common import (
    SweepFailure,
    SweepPoint,
    SweepPolicy,
    _fingerprint,
    _load_journal,
    run_point,
    run_points,
)
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph


def _config(algorithm="bfs"):
    return ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )


class TestSweepPointValidation:
    def test_valid_point_builds(self):
        point = SweepPoint("WT", "bfs", _config())
        assert point.graph_key == "WT"

    def test_unknown_graph_key_fails_eagerly(self):
        with pytest.raises(ValueError, match="unknown benchmark graph key"):
            SweepPoint("NOPE", "bfs", _config())

    def test_unknown_algorithm_fails_eagerly(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            SweepPoint("WT", "dijkstra", _config())

    def test_error_lists_known_keys(self):
        with pytest.raises(ValueError, match="WT"):
            SweepPoint("XX", "bfs", _config())


# Module-level workers (plain functions; the runner forks, so closures
# work too).

def _double(x):
    return x * 2


def _flaky(x):
    if x == "crash":
        os._exit(9)
    if x == "raise":
        raise ValueError("injected failure")
    return x * 2


_RETRY_MARKER = None  # path of a marker file; set per test


def _fails_once(x):
    # Fails on the first attempt only, using a marker file visible
    # across the forked worker processes.
    if x == 5 and not os.path.exists(_RETRY_MARKER):
        open(_RETRY_MARKER, "w").close()
        os._exit(7)
    return x * 2


class TestHardenedRunner:
    def test_inert_policy_keeps_fast_path(self):
        assert not SweepPolicy().active
        assert run_points(_double, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_crash_and_exception_are_isolated(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        policy = SweepPolicy(journal=journal, backoff=0.01)
        with pytest.raises(SweepFailure) as excinfo:
            run_points(_flaky, [1, "crash", 2, "raise", 3], jobs=2,
                       policy=policy)
        failure = excinfo.value
        assert sorted(failure.failures) == [1, 3]
        assert failure.completed == 3
        assert "exit code 9" in failure.failures[1]
        assert "injected failure" in failure.failures[3]

    def test_retry_recovers_transient_crash(self, tmp_path):
        global _RETRY_MARKER
        _RETRY_MARKER = str(tmp_path / "fail.marker")
        policy = SweepPolicy(retries=1, backoff=0.01)
        results = run_points(_fails_once, [1, 5, 9], jobs=2, policy=policy)
        assert results == [2, 10, 18]
        assert os.path.exists(_RETRY_MARKER)  # first attempt did crash

    def test_timeout_kills_hung_worker(self, tmp_path):
        def hang(x):
            if x == "hang":
                import time
                time.sleep(120)
            return x

        policy = SweepPolicy(timeout=1.0, backoff=0.01)
        with pytest.raises(SweepFailure) as excinfo:
            run_points(hang, ["ok", "hang"], jobs=2, policy=policy)
        assert "timed out" in excinfo.value.failures[1]
        assert excinfo.value.completed == 1

    def test_kill_then_resume_completes_identical_rows(self, tmp_path):
        """The acceptance scenario: a sweep dies partway; --resume
        finishes it and the rows match an uninterrupted run exactly."""
        journal = str(tmp_path / "resume.jsonl")
        points = list(range(8))
        expected = [x * 2 for x in points]

        # "Killed" run: point 5 hard-crashes the worker (no retries),
        # everything else completes and is journaled.
        global _RETRY_MARKER
        _RETRY_MARKER = str(tmp_path / "never-created.marker")

        def crash_on_5(x):
            if x == 5:
                os._exit(11)
            return x * 2

        policy = SweepPolicy(journal=journal, backoff=0.01)
        with pytest.raises(SweepFailure) as excinfo:
            run_points(crash_on_5, points, jobs=3, policy=policy)
        assert excinfo.value.completed == len(points) - 1

        # Resume with a healthy worker: only the lost point re-runs.
        ran = str(tmp_path / "reran.log")

        def logging_worker(x):
            with open(ran, "a") as handle:
                handle.write(f"{x}\n")
            return x * 2

        resume = SweepPolicy(journal=journal, resume=True, backoff=0.01)
        results = run_points(logging_worker, points, jobs=3, policy=resume)
        assert results == expected
        reran = [int(line) for line in open(ran).read().split()]
        assert reran == [5]  # at most the in-flight point was lost

    def test_journal_tolerates_truncated_tail(self, tmp_path):
        journal = str(tmp_path / "trunc.jsonl")
        policy = SweepPolicy(journal=journal)
        run_points(_double, [1, 2], jobs=2, policy=policy)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"index": 99, "status": "ok", "payl')  # cut off
        with pytest.warns(RuntimeWarning, match="unparseable journal"):
            entries = _load_journal(journal)
        assert len(entries) == 2

    def test_resume_warns_on_mid_record_truncation(self, tmp_path):
        """A sweep SIGKILLed mid-append leaves a partial trailing JSONL
        record; --resume must skip it with a warning naming the line,
        keep every complete record, and re-run the lost point."""
        journal = str(tmp_path / "midcut.jsonl")
        run_points(_double, [1, 2, 3], jobs=1,
                   policy=SweepPolicy(journal=journal))
        with open(journal, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) == 3
        # Cut the last record in half, mid-payload -- exactly what a
        # kill during the final write leaves behind.
        truncated = lines[2][: len(lines[2]) // 2]
        with open(journal, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:2] + [truncated])
        with pytest.warns(RuntimeWarning, match=r"midcut\.jsonl:3"):
            entries = _load_journal(journal)
        assert len(entries) == 2
        # Resume re-runs only the point whose record was lost.
        results = run_points(
            _double, [1, 2, 3], jobs=1,
            policy=SweepPolicy(journal=journal, resume=True),
        )
        assert results == [2, 4, 6]

    def test_journal_records_are_json_lines(self, tmp_path):
        journal = str(tmp_path / "fmt.jsonl")
        run_points(_double, [3], jobs=1,
                   policy=SweepPolicy(journal=journal))
        lines = [json.loads(line) for line in open(journal)]
        assert lines[0]["status"] == "ok"
        assert lines[0]["index"] == 0
        assert "fingerprint" in lines[0] and "payload" in lines[0]


# Simulation worker for the checkpoint/kill tests: a real sweep point
# (module level so the forked child can run it) whose result is a
# fingerprintable plain dict.

_KILL_GRAPH = (600, 3000, 7)
_KILL_AT = 6000


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _sim_algorithm(algorithm, checkpoint=None):
    graph = web_graph(*_KILL_GRAPH[:2], seed=_KILL_GRAPH[2])
    _system, result = run_point(graph, algorithm, _config(algorithm),
                                quick=True, checkpoint=checkpoint)
    return {
        "algorithm": algorithm,
        "cycles": result.cycles,
        "iterations": result.iterations,
        "values_sha": _sha256(np.ascontiguousarray(result.values).tobytes()),
        "stats_sha": _sha256(
            json.dumps(result.stats, sort_keys=True, default=str).encode()
        ),
    }


def _poll_or_die(poll):
    """``Checkpointer.poll`` that SIGKILLs its process at the first poll
    at or after cycle ``_KILL_AT``, once per snapshot path: the marker
    is written before the signal, so the resumed process sees it and
    checkpoints on."""
    def poll_or_die(checkpointer, engine):
        marker = checkpointer.path + ".killed"
        if engine.now >= _KILL_AT and not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write(f"{engine.now}\n")
            os.kill(os.getpid(), signal.SIGKILL)
        poll(checkpointer, engine)
    return poll_or_die


def _load_and_record(load):
    """``load_snapshot`` that leaves a ``<snapshot>.resumed`` file with
    the loaded snapshot's cycle, so the test sees that the retry went
    through the resume path (the rows are identical either way)."""
    def load_and_record(path):
        system, header = load(path)
        with open(path + ".resumed", "w", encoding="utf-8") as fh:
            fh.write(f"{header['cycle']}\n")
        return system, header
    return load_and_record


class TestCheckpointedSweep:
    """A sweep worker SIGKILLed mid-point resumes from its snapshot on
    retry, in a fresh process, and the resumed sweep's rows -- cycles,
    iterations, values and stats -- equal an uninterrupted run's."""

    ALGORITHMS = ["pagerank", "bfs", "sssp", "scc"]

    def test_sigkill_mid_point_resumes_identical(self, tmp_path,
                                                 monkeypatch):
        # Uninterrupted reference rows (fast path, in-process).
        expected = [_sim_algorithm(a) for a in self.ALGORITHMS]

        # Every point's worker takes a real SIGKILL at its first poll at
        # or after _KILL_AT, and every resume leaves a marker; the
        # forked workers inherit both patches.
        monkeypatch.setattr(Checkpointer, "poll",
                            _poll_or_die(Checkpointer.poll))
        monkeypatch.setattr(common, "load_snapshot",
                            _load_and_record(common.load_snapshot))
        checkpoint_dir = str(tmp_path / "snaps")
        policy = SweepPolicy(retries=1, backoff=0.01,
                             checkpoint_dir=checkpoint_dir,
                             checkpoint_interval=2000)
        results = run_points(_sim_algorithm, self.ALGORITHMS, jobs=1,
                             policy=policy)
        assert results == expected

        for algorithm, row in zip(self.ALGORITHMS, expected):
            snap = os.path.join(checkpoint_dir,
                                _fingerprint(algorithm) + ".snap")
            # The kill really fired, after at least one snapshot...
            with open(snap + ".killed", encoding="utf-8") as fh:
                killed_at = int(fh.read())
            assert _KILL_AT <= killed_at < row["cycles"], algorithm
            # ...and the retry resumed from a snapshot taken before it.
            with open(snap + ".resumed", encoding="utf-8") as fh:
                resumed_from = int(fh.read())
            assert 0 < resumed_from <= killed_at, algorithm
