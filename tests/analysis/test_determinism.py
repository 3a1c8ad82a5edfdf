"""Two lint runs over the tree must produce byte-identical output.

The linter that certifies the simulator's determinism must itself be
deterministic: fresh parses, fresh indexes, same bytes -- for every
emitter.  (No timestamps, no absolute paths, no hash-order effects.)
"""

import pathlib

from repro.analysis import lint_paths
from repro.analysis.emitters import emit_json, emit_sarif, emit_text

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


class TestLintDeterminism:
    def test_two_runs_byte_identical(self):
        first = lint_paths([SRC])
        second = lint_paths([SRC])
        assert emit_text(first, show_suppressed=True) \
            == emit_text(second, show_suppressed=True)
        assert emit_json(first, show_suppressed=True) \
            == emit_json(second, show_suppressed=True)
        assert emit_sarif(first) == emit_sarif(second)

    def test_paths_are_repo_relative(self):
        result = lint_paths([SRC])
        for finding in result.findings + result.suppressed:
            assert not finding.path.startswith("/"), finding.path
            assert finding.path.startswith("src/repro/"), finding.path
