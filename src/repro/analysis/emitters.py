"""Finding serializers: human text, machine JSON, and SARIF 2.1.0.

All three are deterministic functions of the LintResult -- no
timestamps, no absolute paths, stable ordering -- so CI artifacts diff
cleanly between runs and the golden-file tests can compare bytes.
"""

import json

from repro.analysis import engine as _engine
from repro.analysis.rules import ALL_RULES

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "simlint"
# Tool version, surfaced in SARIF/JSON envelopes; tracks the rule
# catalog, not the repo release.  2.0: the 8-rule catalog.
TOOL_VERSION = "2.0"


def _finding_line(finding):
    suffix = " [suppressed]" if finding.suppressed else ""
    hint = f" ({finding.hint})" if finding.hint else ""
    return (
        f"{finding.path}:{finding.line}:{finding.col}: "
        f"{finding.rule} {finding.severity}: {finding.message}"
        f"{hint}{suffix}"
    )


def emit_text(result, show_suppressed=False):
    """One line per finding plus a summary tail; '' findings -> clean."""
    lines = [_finding_line(finding) for finding in result.findings]
    if show_suppressed:
        lines.extend(
            _finding_line(finding)
            for finding in result.suppressed
        )
    counts = result.counts()
    summary = (
        f"simlint: {len(result.findings)} finding(s) "
        f"({counts.get('error', 0)} error, {counts.get('warning', 0)} "
        f"warning), {len(result.suppressed)} suppressed, "
        f"{result.files_scanned} file(s), "
        f"rules {','.join(result.rules_run)}"
    )
    lines.append(summary)
    lines.extend(f"simlint: error: {error}" for error in result.errors)
    return "\n".join(lines) + "\n"


def emit_json(result, show_suppressed=False):
    payload = {
        "schema": _engine.LINT_SCHEMA,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "rules_run": list(result.rules_run),
        "files_scanned": result.files_scanned,
        "counts": result.counts(),
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [
            finding.to_dict() for finding in result.suppressed
        ] if show_suppressed else len(result.suppressed),
        "errors": list(result.errors),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sarif_rules():
    return [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.rationale},
            "help": {"text": rule.hint},
            "defaultConfiguration": {
                "level": "error" if rule.severity == "error" else "warning",
            },
        }
        for rule in ALL_RULES
    ]


def _sarif_result(finding):
    entry = {
        "ruleId": finding.rule,
        "level": "error" if finding.severity == "error" else "warning",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                },
            }
        ],
    }
    if finding.hint:
        entry["properties"] = {"hint": finding.hint}
    if finding.suppressed:
        entry["suppressions"] = [{"kind": "inSource"}]
    return entry


def emit_sarif(result, show_suppressed=True):
    """SARIF log; suppressed findings ride along flagged as such.

    SARIF consumers (GitHub code scanning and friends) understand the
    ``suppressions`` property, so unlike the text/JSON emitters the
    suppressed findings are included by default.
    """
    findings = list(result.findings)
    if show_suppressed:
        findings += result.suppressed
    findings.sort(key=lambda finding: finding.sort_key())
    log = {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA_URI,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": TOOL_VERSION,
                        "rules": _sarif_rules(),
                    },
                },
                "columnKind": "utf16CodeUnits",
                "results": [_sarif_result(f) for f in findings],
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True) + "\n"


EMITTERS = {
    "text": emit_text,
    "json": emit_json,
    "sarif": emit_sarif,
}
