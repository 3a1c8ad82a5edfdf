"""The simlint engine: one parse per file, shared indexes, rule runs.

The pipeline is deliberately boring and deterministic:

1. collect ``.py`` files under the given paths (sorted, stable rel
   paths against the repo root);
2. parse each exactly once into a :class:`~repro.analysis.source.
   SourceFile` (unparseable files become result errors, not crashes);
3. build the shared index -- the hot-path classifier -- once for the
   whole tree;
4. run the selected rules, dedup, apply inline suppressions, sort.

Byte-identical output across runs is a tested property: no wall-clock,
no hash-order dependence, no absolute paths in findings.
"""

import pathlib

from repro.analysis.findings import LintResult
from repro.analysis.hotpath import HOT_PACKAGES, HotPathIndex
from repro.analysis.rules import select_rules
from repro.analysis.source import parse_source

# Version stamped into the JSON emitter's envelope; bump on layout
# changes.  v2 dropped the baseline and notes fields.
LINT_SCHEMA = 2


class LintContext:
    """Shared read-only state every rule check receives."""

    __slots__ = ("sources", "hot")

    def __init__(self, sources, hot):
        self.sources = sources
        self.hot = hot

    def in_hot_package(self, source):
        """Package-level scope test (fixture trees count as hot)."""
        if self.hot.force_hot:
            return True
        return any(marker in source.rel for marker in HOT_PACKAGES)


def find_repo_root(start):
    """Nearest ancestor with a pyproject.toml (else *start* itself)."""
    path = pathlib.Path(start).resolve()
    if path.is_file():
        path = path.parent
    for candidate in (path, *path.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return path


def default_paths():
    """The installed repro package tree (works from any cwd)."""
    return [pathlib.Path(__file__).resolve().parents[1]]


def collect_sources(paths, root=None):
    """Parse every .py file under *paths*; returns (sources, errors)."""
    if root is None:
        root = find_repo_root(paths[0] if paths else ".")
    root = pathlib.Path(root).resolve()
    files = []
    for path in paths:
        path = pathlib.Path(path).resolve()
        if path.is_dir():
            files.extend(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.append(path)
    seen = set()
    sources, errors = [], []
    for path in sorted(files):
        if path in seen:
            continue
        seen.add(path)
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            errors.append(f"{rel}: unreadable ({error})")
            continue
        source, parse_error = parse_source(path, text, rel=rel)
        if source is None:
            errors.append(parse_error)
        else:
            sources.append(source)
    sources.sort(key=lambda source: source.rel)
    return sources, errors


def build_context(sources, force_hot=False):
    return LintContext(
        sources=sources,
        hot=HotPathIndex(sources, force_hot=force_hot),
    )


def _rule_matches(rule, names):
    return rule.id in names or rule.name in names or "all" in names


def run_rules(sources, rules, ctx):
    """Run *rules* over *sources*; dedup, suppress, sort."""
    result = LintResult(
        files_scanned=len(sources),
        rules_run=tuple(rule.id for rule in rules),
    )
    seen = set()
    for rule in rules:
        for source in sources:
            for finding in rule.check(source, ctx):
                key = finding.identity()
                if key in seen:
                    continue
                seen.add(key)
                suppressed_names = source.suppressed_rules_at(finding.line)
                if _rule_matches(rule, suppressed_names):
                    finding.suppressed = True
                    result.suppressed.append(finding)
                else:
                    result.findings.append(finding)
    result.findings.sort(key=lambda finding: finding.sort_key())
    result.suppressed.sort(key=lambda finding: finding.sort_key())
    return result


def lint_paths(paths=None, rules=None, root=None, force_hot=False):
    """Lint files/directories; the main library entry point.

    *rules* is a comma-separated spec ("R2,R6" / "mutable-default-arg")
    or a sequence of rule instances; ``None`` runs the whole catalog.
    """
    paths = list(paths) if paths else default_paths()
    if rules is None or isinstance(rules, str):
        rules = select_rules(rules)
    sources, errors = collect_sources(paths, root=root)
    result = run_rules(sources, rules, build_context(sources, force_hot))
    result.errors = errors
    return result


def lint_text(text, rules=None, rel="fixture.py", force_hot=True):
    """Lint one in-memory snippet (fixture tests, self-check)."""
    if rules is None or isinstance(rules, str):
        rules = select_rules(rules)
    source, parse_error = parse_source(rel, text, rel=rel)
    if source is None:
        result = LintResult(rules_run=tuple(rule.id for rule in rules))
        result.errors = [parse_error]
        return result
    ctx = build_context([source], force_hot=force_hot)
    return run_rules([source], rules, ctx)


def selfcheck(rules=None):
    """Every rule must flag its POSITIVE and accept its NEGATIVE.

    Returns a list of problem strings (empty = healthy).  This is the
    "guard that guards the guard" from the original hot-path lint
    test, generalized to the whole catalog and run by ``--quick``.
    """
    if rules is None or isinstance(rules, str):
        rules = select_rules(rules)
    problems = []
    for rule in rules:
        positive = lint_text(rule.POSITIVE, rules=(rule,))
        if not positive.findings:
            problems.append(
                f"{rule.id} ({rule.name}): positive fixture produced no "
                f"finding"
            )
        negative = lint_text(rule.NEGATIVE, rules=(rule,))
        if negative.findings:
            where = negative.findings[0]
            problems.append(
                f"{rule.id} ({rule.name}): negative fixture flagged at "
                f"line {where.line}: {where.message}"
            )
    return problems
