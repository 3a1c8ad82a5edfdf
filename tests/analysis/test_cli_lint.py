"""End-to-end ``python -m repro lint`` behavior through main().

The positive-fixture tests scaffold a miniature package tree (an
engine module seeding the hot-path classifier plus one fixture module
in a hot package) so each rule's own POSITIVE snippet drives the CLI
to a non-zero exit -- the acceptance bar from DESIGN.md 6.5.
"""

import json
import time

import pytest

from repro.__main__ import main
from repro.analysis import ALL_RULES

# Minimal engine module: gives the classifier its _step/wake seeds and
# the component.tick(self) dispatch that marks fixture ticks hot.
ENGINE = (
    "class Engine:\n"
    "    def _step(self):\n"
    "        for component in self.components:\n"
    "            component.tick(self)\n"
    "    def wake(self, component, when):\n"
    "        self.heap.append((when, component))\n"
)


def scaffold(tmp_path, snippet):
    """Write a lintable mini-tree; returns the path to pass --paths."""
    (tmp_path / "repro" / "sim").mkdir(parents=True, exist_ok=True)
    (tmp_path / "repro" / "core").mkdir(parents=True, exist_ok=True)
    (tmp_path / "repro" / "sim" / "engine.py").write_text(
        ENGINE, encoding="utf-8")
    (tmp_path / "repro" / "core" / "fixture.py").write_text(
        snippet, encoding="utf-8")
    return tmp_path


class TestLintCli:
    def test_repo_tree_lints_clean_at_head(self):
        # The headline acceptance criterion: the shipped tree passes
        # its own linter with the default (error) gate.
        assert main(["lint"]) == 0

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.id)
    def test_each_positive_fixture_fails_the_cli(self, rule, tmp_path):
        root = scaffold(tmp_path, rule.POSITIVE)
        # --fail-on warning so warning-severity rules (R5) gate too.
        code = main([
            "lint", "--rules", rule.id, "--fail-on", "warning",
            "--paths", str(root),
        ])
        assert code == 1, f"{rule.id} positive fixture did not fail"

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.id)
    def test_each_negative_fixture_passes_the_cli(self, rule, tmp_path):
        root = scaffold(tmp_path, rule.NEGATIVE)
        code = main([
            "lint", "--rules", rule.id, "--fail-on", "warning",
            "--paths", str(root),
        ])
        assert code == 0, f"{rule.id} negative fixture failed"

    def test_unknown_rule_is_a_tool_error(self):
        assert main(["lint", "--rules", "R99"]) == 2

    def test_unparseable_file_is_a_tool_error(self, tmp_path):
        root = scaffold(tmp_path, "def broken(:\n")
        assert main(["lint", "--paths", str(root)]) == 2

    def test_fail_on_never_reports_but_passes(self, tmp_path):
        rule = ALL_RULES[0]
        root = scaffold(tmp_path, rule.POSITIVE)
        code = main([
            "lint", "--rules", rule.id, "--fail-on", "never",
            "--paths", str(root),
        ])
        assert code == 0

    def test_list_rules_prints_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out
            assert rule.name in out

    def test_sarif_output_is_valid_json_on_stdout(self, capsys):
        assert main(["lint", "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        # The repo's justified inline suppressions ride along marked.
        results = log["runs"][0]["results"]
        assert all(
            entry["suppressions"][0]["kind"] == "inSource"
            for entry in results
        )

    def test_quick_selfchecks_within_budget(self):
        started = time.monotonic()
        assert main(["lint", "--quick"]) == 0
        assert time.monotonic() - started < 30.0
