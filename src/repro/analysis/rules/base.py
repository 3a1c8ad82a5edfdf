"""Base class for simlint rules.

A rule is stateless: ``check(source, ctx)`` yields findings for one
parsed file, reading the shared hot-path classification from the
:class:`~repro.analysis.engine.LintContext`.
Each rule carries a ``POSITIVE`` and a ``NEGATIVE`` snippet -- the
engine's self-check (``python -m repro lint --quick``) and the fixture
tests both assert the positive fires and the negative stays clean, so
the guard that guards the guards ships with the rules themselves.
"""

from repro.analysis.findings import Finding


class Rule:
    """One enforceable contract.  Subclasses set the class attributes
    and implement :meth:`check`."""

    id = "R0"
    name = "unnamed"
    severity = "error"
    summary = ""
    rationale = ""  # why the contract protects bit-identical cycles
    hint = ""
    POSITIVE = ""  # snippet the rule must flag (self-check fixture)
    NEGATIVE = ""  # snippet the rule must accept

    def check(self, source, ctx):
        raise NotImplementedError

    def finding(self, source, node, message, hint=None, severity=None):
        return Finding(
            rule=self.id,
            name=self.name,
            severity=severity or self.severity,
            path=source.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint if hint is None else hint,
        )
