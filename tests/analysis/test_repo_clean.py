"""The tree must satisfy its own contracts (migrated tier-1 guard).

This replaces tests/test_hot_path_lint.py: the one ad-hoc AST rule it
carried (single-token channel calls in hot loops) is now simlint R2,
generalized to the hot-path classifier's hot set, and the whole catalog runs
repo-wide.  A regression shows up as a named file:line in the assert
message instead of a slow benchmark or a flaky replay.
"""

import pathlib

from repro.analysis import lint_paths, selfcheck
from repro.analysis.emitters import emit_text

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _format(result):
    return emit_text(result)


class TestRepoContracts:
    def test_selfcheck_guards_the_guards(self):
        # Every rule must still catch its own positive fixture and
        # accept its negative -- a rule that stopped firing would make
        # the clean-tree asserts below vacuous.
        assert selfcheck() == []

    def test_hot_modules_stay_on_bulk_channel_apis(self):
        # The original tier-1 lint, reborn: R2 over the classifier-
        # derived hot set, expecting zero active findings.
        result = lint_paths([SRC], rules="R2")
        assert not result.findings, _format(result)

    def test_whole_catalog_clean_at_head(self):
        # Acceptance bar for the subsystem: every true positive in the
        # tree is fixed or carries a justified inline suppression.
        result = lint_paths([SRC])
        assert not result.errors, result.errors
        assert not result.findings, _format(result)

    def test_suppressions_stay_few_and_justified(self):
        # Suppressions are a budget, not a loophole: every entry must
        # carry a justification (the ``--`` clause) and the total must
        # stay small enough to review by hand.  Raise the bound
        # consciously if a legitimate new exemption lands.
        result = lint_paths([SRC])
        assert len(result.suppressed) <= 8, _format(result)
        for finding in result.suppressed:
            source_line = (SRC.parents[1] / finding.path).read_text(
                encoding="utf-8").splitlines()
            window = "\n".join(
                source_line[max(0, finding.line - 6):finding.line])
            assert "simlint: disable" in window, (finding.path,
                                                  finding.line)
            tail = window.split("simlint: disable", 1)[1]
            assert "--" in tail, (
                f"{finding.path}:{finding.line}: suppression without a "
                f"-- justification clause"
            )
