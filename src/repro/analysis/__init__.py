"""simlint: AST-based static analysis for the simulator's contracts.

The reproduction's central claim -- bit-identical cycle counts across
engines, telemetry, and fault replays -- rests on coding contracts (no
wall-clock in tick paths, bulk channel APIs, slotted tokens) that this
package enforces statically.  See DESIGN.md 6.5 for the catalog and
policy, and ``python -m repro lint --list-rules`` for the live
inventory.

Public surface:

* :func:`repro.analysis.engine.lint_paths` / ``lint_text`` /
  ``selfcheck`` -- the library API;
* :mod:`repro.analysis.rules` -- the catalog (``ALL_RULES``,
  ``select_rules``);
* :mod:`repro.analysis.emitters` -- text/JSON/SARIF serializers;
* :mod:`repro.analysis.cli` -- the ``python -m repro lint`` command.
"""

from repro.analysis.engine import (
    LINT_SCHEMA,
    lint_paths,
    lint_text,
    selfcheck,
)
from repro.analysis.findings import Finding, LintResult
from repro.analysis.hotpath import HotPathIndex
from repro.analysis.rules import ALL_RULES, select_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "HotPathIndex",
    "LINT_SCHEMA",
    "LintResult",
    "lint_paths",
    "lint_text",
    "select_rules",
    "selfcheck",
]
