"""Schema-versioned, tolerant parsing for journals and activity dicts.

``--resume`` must survive code changes: journal rows written by an
older (or newer) build, and activity dicts carrying fields this build
does not know, are degraded to "re-run the point" instead of crashing
the sweep.
"""

import json
import os

from repro.core.stats import ACTIVITY_SCHEMA_VERSION, EngineActivity
from repro.experiments.common import (
    JOURNAL_SCHEMA,
    SweepPolicy,
    _decode_payload,
    run_points,
)


def _double(x):
    return x * 2


class TestActivitySchema:
    def test_as_dict_is_versioned(self):
        data = EngineActivity(cycles_simulated=10).as_dict()
        assert data["version"] == ACTIVITY_SCHEMA_VERSION

    def test_round_trip(self):
        activity = EngineActivity(
            cycles_simulated=100, component_ticks=40,
            by_kind={"Pe": {"count": 4, "ticks": 30, "wakes": 20}},
        )
        clone = EngineActivity.from_dict(activity.as_dict())
        assert clone.cycles_simulated == 100
        assert clone.by_kind == activity.by_kind

    def test_from_dict_ignores_unknown_fields(self):
        """A dict from a *newer* build parses instead of raising."""
        data = EngineActivity(cycles_simulated=5).as_dict()
        data["version"] = ACTIVITY_SCHEMA_VERSION + 7
        data["field_from_the_future"] = {"x": 1}
        clone = EngineActivity.from_dict(data)
        assert clone.cycles_simulated == 5

    def test_from_dict_accepts_pre_version_dicts(self):
        """A dict from an *older* build (no version, no by_kind)."""
        clone = EngineActivity.from_dict(
            {"cycles_simulated": 3, "component_ticks": 2}
        )
        assert clone.cycles_simulated == 3
        assert clone.by_kind == {}

    def test_from_dict_reads_v3_rows(self):
        """v3 rows carried the macro-tick fusion counters v4 dropped."""
        row = {
            "version": 3, "cycles_simulated": 9, "cycles_skipped": 4,
            "component_ticks": 12, "component_wakes": 11,
            "all_tick_equivalent": 36, "runs": 1, "fused_runs": 2,
            "fused_cycles": 6, "mean_run_len": 3.0,
            "fusion_abort_reasons": {"horizon": 1},
            "by_kind": {"Pe": {"count": 4, "ticks": 12, "wakes": 11}},
        }
        clone = EngineActivity.from_dict(row)
        assert clone.as_dict() == dict(
            {key: row[key] for key in (
                "cycles_simulated", "cycles_skipped", "component_ticks",
                "component_wakes", "all_tick_equivalent", "runs",
                "by_kind")},
            version=ACTIVITY_SCHEMA_VERSION)

    def test_merge_sums_by_kind(self):
        a = EngineActivity(by_kind={"Pe": {"count": 1, "ticks": 5,
                                           "wakes": 2}})
        b = EngineActivity(by_kind={"Pe": {"count": 1, "ticks": 7,
                                           "wakes": 1},
                                    "Bank": {"count": 2, "ticks": 3,
                                             "wakes": 3}})
        a.merge(b)
        assert a.by_kind["Pe"] == {"count": 2, "ticks": 12, "wakes": 3}
        assert a.by_kind["Bank"]["count"] == 2


class TestJournalSchema:
    def test_rows_carry_schema_version(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        run_points(_double, [1], jobs=1,
                   policy=SweepPolicy(journal=journal))
        row = json.loads(open(journal).readline())
        assert row["schema"] == JOURNAL_SCHEMA

    def test_decode_rejects_newer_schema(self):
        assert _decode_payload(
            {"schema": JOURNAL_SCHEMA + 1, "payload": "AAAA"}
        ) is None

    def test_decode_rejects_corrupt_payload(self):
        assert _decode_payload(
            {"schema": JOURNAL_SCHEMA, "payload": "not-base64!!"}
        ) is None

    def test_resume_reruns_undecodable_points(self, tmp_path):
        """A journal row whose payload no longer decodes is treated as
        missing: the point re-runs and the sweep still completes."""
        journal = str(tmp_path / "resume.jsonl")
        run_points(_double, [1, 2, 3], jobs=1,
                   policy=SweepPolicy(journal=journal))

        rows = [json.loads(line) for line in open(journal)]
        rows[1]["payload"] = "corrupt//data"
        with open(journal, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

        results = run_points(
            _double, [1, 2, 3], jobs=1,
            policy=SweepPolicy(journal=journal, resume=True),
        )
        assert results == [2, 4, 6]

    def test_resume_reruns_rows_from_newer_schema(self, tmp_path):
        journal = str(tmp_path / "newer.jsonl")
        run_points(_double, [4], jobs=1,
                   policy=SweepPolicy(journal=journal))
        rows = [json.loads(line) for line in open(journal)]
        rows[0]["schema"] = JOURNAL_SCHEMA + 5
        with open(journal, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        results = run_points(
            _double, [4], jobs=1,
            policy=SweepPolicy(journal=journal, resume=True),
        )
        assert results == [8]

