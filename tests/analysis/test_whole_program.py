"""The whole-program passes (R11-R14) beyond their built-in fixtures.

Covers the distinctions the per-file sweep cannot: transitive
containment for snapshot completeness, interprocedural hook flow,
declined-hook region pruning for fusion purity, schema-pin drift --
plus the cross-rule suppression form and the static/dynamic agreement
bar for R11 (the same rogue class caught by lint and by the runtime
``audit_system``).
"""

import pathlib
import shutil

import pytest

from repro.analysis import lint_paths, lint_text

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

# Both fused slots declined in one terminating Or-chain, plus the
# space watchers: the canonical "nothing instrumented, fuse away" gate.
DECLINE_ALL = (
    "        if (self._fault is not None or self._probe is not None\n"
    "                or self._space_subs):\n"
    "            return 0\n"
)


def rules_of(result):
    return sorted({f.rule for f in result.findings})


class TestSnapshotCompletenessR11:
    def test_transitive_containment_walked(self):
        # Outer is registered; Inner only reaches system state through
        # Outer's constructor, and must still be accounted for.
        text = (
            "class Inner:\n"
            "    pass\n"
            "class Outer:\n"
            "    def __init__(self):\n"
            "        self.inner = Inner()\n"
            "def _register_all(register):\n"
            "    for cls, note in (\n"
            "        (Outer, 'wrapper'),\n"
            "    ):\n"
            "        register(cls, note)\n"
            "class AcceleratorSystem:\n"
            "    def __init__(self):\n"
            "        self.outer = Outer()\n"
        )
        (finding,) = lint_text(text, rules="R11").findings
        assert "'Inner'" in finding.message
        assert "'Outer'" in finding.message  # names the containing class

    def test_container_append_counts_as_state(self):
        text = (
            "class Row:\n"
            "    pass\n"
            "class AcceleratorSystem:\n"
            "    def _build_rows(self):\n"
            "        self.rows.append(Row())\n"
        )
        (finding,) = lint_text(text, rules="R11").findings
        assert "'Row'" in finding.message

    def test_excluded_table_is_honored(self):
        text = (
            "SNAPSHOT_EXCLUDED = {'Scratch': 'rebuilt on restore'}\n"
            "class Scratch:\n"
            "    pass\n"
            "class AcceleratorSystem:\n"
            "    def __init__(self):\n"
            "        self.scratch = Scratch()\n"
        )
        assert not lint_text(text, rules="R11").findings


class TestInterproceduralHookR12:
    def test_two_hop_forwarding_flagged(self):
        text = (
            "def emit(probe, event):\n"
            "    probe.record(event)\n"
            "def relay(sink, event):\n"
            "    emit(sink, event)\n"
            "class Bank:\n"
            "    def tick(self, engine):\n"
            "        relay(self._probe, 'bank')\n"
        )
        (finding,) = lint_text(text, rules="R12").findings
        assert "self._probe" in finding.message
        assert "'relay'" in finding.message

    def test_instrumentation_packages_exempt(self):
        text = (
            "def emit(probe, event):\n"
            "    probe.record(event)\n"
            "class Bank:\n"
            "    def tick(self, engine):\n"
            "        emit(self._probe, 'bank')\n"
        )
        assert lint_text(text, rules="R12",
                         rel="repro/core/bank.py").findings
        assert not lint_text(text, rules="R12",
                             rel="repro/telemetry/probe.py").findings


class TestFusionPurityR13:
    def test_declined_hook_prunes_call_region(self):
        # `self._probe.issue(...)` is dead inside the fused window
        # (the decline returned 0); name dispatch must not drag every
        # other `issue` method's pushes into the region.
        text = (
            "class Other:\n"
            "    def issue(self, item):\n"
            "        self.out.push(item)\n"
            "class Pipe:\n"
            "    def step_n(self, engine, budget):\n"
            + DECLINE_ALL +
            "        self._schedule(budget)\n"
            "        return budget\n"
            "    def _schedule(self, budget):\n"
            "        if self._probe is not None:\n"
            "            self._probe.issue(budget)\n"
        )
        assert not lint_text(text, rules="R13").findings

    def test_push_in_reachable_helper_flagged(self):
        text = (
            "class Pipe:\n"
            "    def step_n(self, engine, budget):\n"
            + DECLINE_ALL +
            "        self._drain(budget)\n"
            "        return budget\n"
            "    def _drain(self, budget):\n"
            "        self.out.push(budget)\n"
        )
        (finding,) = lint_text(text, rules="R13").findings
        assert "push" in finding.message
        assert "'Pipe._drain'" in finding.message

    def test_pop_is_covered_by_space_decline(self):
        body = (
            "class Pipe:\n"
            "    def step_n(self, engine, budget):\n"
            "{decline}"
            "        self.inbox.pop()\n"
            "        return budget\n"
        )
        covered = body.format(decline=DECLINE_ALL)
        assert not lint_text(covered, rules="R13").findings
        uncovered = body.format(decline=(
            "        if self._fault is not None or self._probe is not None:\n"
            "            return 0\n"
        ))
        (finding,) = lint_text(uncovered, rules="R13").findings
        assert "pop" in finding.message

    def test_per_element_now_in_helper_flagged(self):
        text = (
            "class Pipe:\n"
            "    def step_n(self, engine, budget):\n"
            + DECLINE_ALL +
            "        self._stamp(engine, budget)\n"
            "        return budget\n"
            "    def _stamp(self, engine, budget):\n"
            "        for i in range(budget):\n"
            "            self.log(engine.now)\n"
        )
        (finding,) = lint_text(text, rules="R13").findings
        assert "now" in finding.message


class TestSchemaCoherenceR14:
    def test_stale_version_pin_reported(self):
        text = (
            "ROW_SCHEMA = 2\n"
            "def as_row():\n"
            "    return {'schema': ROW_SCHEMA, 'alpha': 1}\n"
        )
        (finding,) = lint_text(text, rules="R14").findings
        assert "re-pin" in finding.message

    def test_key_change_without_bump_names_the_drift(self):
        text = (
            "ROW_SCHEMA = 1\n"
            "def as_row():\n"
            "    return {'schema': ROW_SCHEMA, 'beta': 2}\n"
        )
        (finding,) = lint_text(text, rules="R14").findings
        assert "version bump" in finding.message
        assert "beta" in finding.message    # added
        assert "alpha" in finding.message   # removed

    def test_reader_of_unwritten_key_flagged(self):
        text = (
            "ROW_SCHEMA = 1\n"
            "def as_row():\n"
            "    return {'schema': ROW_SCHEMA, 'alpha': 1}\n"
            "def read_row(row):\n"
            "    return row.get('gamma', 0)\n"
        )
        (finding,) = lint_text(text, rules="R14").findings
        assert "gamma" in finding.message

    def test_real_contracts_hold_at_head(self):
        result = lint_paths([SRC], rules="R14")
        assert not result.findings, [f.message for f in result.findings]


class TestCrossRuleSuppression:
    BAD_LINE = "        self.scratch = self._probe.make(Scratch())\n"
    TEXT = (
        "class Scratch:\n"
        "    pass\n"
        "class AcceleratorSystem:\n"
        "    def step_n(self, engine, budget):\n"
        "{line}"
        "        return budget\n"
    )

    def test_one_line_fires_both_rules(self):
        result = lint_text(self.TEXT.format(line=self.BAD_LINE),
                           rules="R11,R13")
        assert rules_of(result) == ["R11", "R13"]
        assert len({f.line for f in result.findings}) == 1

    def test_one_comment_suppresses_both(self):
        line = self.BAD_LINE.rstrip("\n") \
            + "  # simlint: disable=R11,R13 -- fixture scratch\n"
        result = lint_text(self.TEXT.format(line=line), rules="R11,R13")
        assert not result.findings
        assert sorted({f.rule for f in result.suppressed}) == ["R11", "R13"]


class TestStaticDynamicAgreementR11:
    """The same rogue class caught by lint and by audit_system."""

    ROGUE = (
        "\n\nclass RogueLintBuffer:\n"
        "    def __init__(self):\n"
        "        self.rows = []\n"
    )

    def test_lint_catches_injected_rogue_class(self, tmp_path):
        # The pyproject anchor keeps rels at "src/repro/..." so the
        # copied tree gets the same package-scope treatment as HEAD.
        (tmp_path / "pyproject.toml").write_text("[tool.none]\n",
                                                 encoding="utf-8")
        copy = tmp_path / "src" / "repro"
        shutil.copytree(SRC, copy)
        system_py = copy / "accel" / "system.py"
        text = system_py.read_text(encoding="utf-8")
        anchor = "self.checkpointer = checkpointer"
        assert anchor in text
        text = text.replace(
            anchor,
            anchor + "\n            self._rogue = RogueLintBuffer()",
        ) + self.ROGUE
        system_py.write_text(text, encoding="utf-8")
        result = lint_paths([copy], rules="R11")
        (finding,) = result.findings
        assert "'RogueLintBuffer'" in finding.message
        assert finding.path.endswith("accel/system.py")

    def test_audit_system_catches_the_same_class(self):
        from repro.accel.config import (
            ArchitectureConfig,
            SCALED_DEFAULTS,
            _design,
        )
        from repro.accel.system import AcceleratorSystem
        from repro.checkpoint import SnapshotAuditError, audit_system
        from repro.graph import web_graph

        class RogueLintBuffer:
            def __init__(self):
                self.rows = []

        RogueLintBuffer.__module__ = "repro.accel.rogue"
        graph = web_graph(120, 480, seed=3)
        config = ArchitectureConfig(
            _design(2, 2, "shared", "bfs", n_channels=2),
            **SCALED_DEFAULTS,
        )
        system = AcceleratorSystem(graph, "bfs", config)
        system._rogue = RogueLintBuffer()
        with pytest.raises(SnapshotAuditError, match="RogueLintBuffer"):
            audit_system(system)
