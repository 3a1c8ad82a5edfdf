"""Finding model shared by every simlint rule and emitter.

A finding is one contract violation at one source location.  Findings
are plain data -- rules yield them, the engine dedups/sorts/suppresses
them, emitters serialize them -- so the whole pipeline stays
deterministic: two runs over the same tree produce byte-identical
output (a property tested in tests/analysis/test_determinism.py).
"""

from dataclasses import dataclass, field

# Ordered from most to least severe; index = rank used by --fail-on.
SEVERITIES = ("error", "warning")


def severity_rank(severity):
    """Lower rank = more severe; unknown severities sort last."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        return len(SEVERITIES)


@dataclass(slots=True)
class Finding:
    """One rule violation at one location.

    ``path`` is repo-relative with forward slashes (stable across
    machines for golden files and SARIF).  ``suppressed`` marks an
    inline ``# simlint: disable=...`` hit; such findings are carried
    (not dropped) so emitters can report counts and
    ``--show-suppressed`` can surface them.
    """

    rule: str
    name: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    suppressed: bool = False

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

    def identity(self):
        """Dedup key: the same defect reported twice collapses."""
        return (self.rule, self.path, self.line, self.col, self.message)

    def to_dict(self):
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "suppressed": self.suppressed,
        }


@dataclass(slots=True)
class LintResult:
    """Everything one lint run produced, pre-sorted and deduped."""

    findings: list = field(default_factory=list)  # active findings
    suppressed: list = field(default_factory=list)  # inline-disabled
    files_scanned: int = 0
    rules_run: tuple = ()
    errors: list = field(default_factory=list)  # unparseable files etc.

    def counts(self):
        by_severity = {severity: 0 for severity in SEVERITIES}
        for finding in self.findings:
            by_severity.setdefault(finding.severity, 0)
            by_severity[finding.severity] += 1
        return by_severity

    def worst_rank(self):
        """Rank of the most severe active finding (None when clean)."""
        ranks = [severity_rank(f.severity) for f in self.findings]
        return min(ranks) if ranks else None
