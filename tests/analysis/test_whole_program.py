"""The whole-program fusion-purity pass (R13) beyond its fixtures.

Covers the distinctions the per-file sweep cannot: declined-hook
region pruning and helper clauses reached through the call graph --
plus the cross-rule suppression form, and the runtime snapshot audit
that replaced the static snapshot-completeness pass.
"""

import pytest

from repro.analysis import lint_text

# Both fused slots declined in one terminating Or-chain, plus the
# space watchers: the canonical "nothing instrumented, fuse away" gate.
DECLINE_ALL = (
    "        if (self._fault is not None or self._probe is not None\n"
    "                or self._space_subs):\n"
    "            return 0\n"
)


def rules_of(result):
    return sorted({f.rule for f in result.findings})


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


class TestCrossRuleSuppression:
    # An ungated probe call inside a fused kernel breaks two contracts
    # at once: R4 (no is-not-None gate) and R13 (undeclined hook in the
    # fused region).
    BAD_LINE = "        self._probe.record(budget)\n"
    TEXT = (
        "class Pipe:\n"
        "    def step_n(self, engine, budget):\n"
        "{line}"
        "        return budget\n"
    )

    def test_one_line_fires_both_rules(self):
        result = lint_text(self.TEXT.format(line=self.BAD_LINE),
                           rules="R4,R13")
        assert rules_of(result) == ["R13", "R4"]
        assert len({f.line for f in result.findings}) == 1

    def test_one_comment_suppresses_both(self):
        line = self.BAD_LINE.rstrip("\n") \
            + "  # simlint: disable=R4,R13 -- fixture probe\n"
        result = lint_text(self.TEXT.format(line=line), rules="R4,R13")
        assert not result.findings
        assert sorted({f.rule for f in result.suppressed}) == ["R13", "R4"]


class TestStaticDynamicAgreementR11:
    """An unregistered class in system state fails ``audit_system``."""

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
