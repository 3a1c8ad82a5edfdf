"""Per-rule fixtures: positive fires, negative clean, suppressible.

The generic sweep drives every rule through its own built-in POSITIVE
and NEGATIVE snippets (the same ones ``--quick`` self-checks), then
proves a trailing ``# simlint: disable=<id>`` neutralizes the positive.
The per-rule classes below pin the sharper distinctions each rule is
supposed to draw.
"""

import pytest

from repro.analysis import ALL_RULES, lint_text


def _only(result):
    assert len(result.findings) == 1, [
        f.message for f in result.findings
    ]
    return result.findings[0]


class TestEveryRuleFixture:
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.id)
    def test_positive_fires(self, rule):
        result = lint_text(rule.POSITIVE, rules=(rule,))
        assert result.findings, f"{rule.id} positive fixture is clean"
        assert all(f.rule == rule.id for f in result.findings)

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.id)
    def test_negative_clean(self, rule):
        result = lint_text(rule.NEGATIVE, rules=(rule,))
        assert not result.findings, [f.message for f in result.findings]

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.id)
    def test_inline_suppression(self, rule):
        base = lint_text(rule.POSITIVE, rules=(rule,))
        line = base.findings[0].line
        lines = rule.POSITIVE.splitlines()
        lines[line - 1] += f"  # simlint: disable={rule.id}"
        result = lint_text("\n".join(lines) + "\n", rules=(rule,))
        hits = [f for f in result.findings if f.line == line]
        assert not hits, [f.message for f in hits]
        assert any(f.line == line for f in result.suppressed)

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.id)
    def test_suppression_by_name_and_all(self, rule):
        base = lint_text(rule.POSITIVE, rules=(rule,))
        line = base.findings[0].line
        for token in (rule.name, "all"):
            lines = rule.POSITIVE.splitlines()
            lines[line - 1] += f"  # simlint: disable={token}"
            result = lint_text("\n".join(lines) + "\n", rules=(rule,))
            assert not [f for f in result.findings if f.line == line]


class TestNondeterminismR1:
    def test_seeded_random_instance_allowed(self):
        clean = (
            "import random\n"
            "def tick(self, engine):\n"
            "    rng = random.Random(1234)\n"
            "    return rng\n"
        )
        assert not lint_text(clean, rules="R1").findings

    def test_unseeded_random_instance_flagged(self):
        bad = (
            "import random\n"
            "def tick(self, engine):\n"
            "    return random.Random()\n"
        )
        assert lint_text(bad, rules="R1").findings

    def test_from_import_resolves(self):
        bad = (
            "from random import shuffle\n"
            "def tick(self, engine):\n"
            "    shuffle(self.queue)\n"
        )
        assert lint_text(bad, rules="R1").findings

    def test_datetime_now_flagged(self):
        bad = (
            "import datetime\n"
            "def tick(self, engine):\n"
            "    return datetime.datetime.now()\n"
        )
        assert lint_text(bad, rules="R1").findings

    def test_set_iteration_flagged_sorted_allowed(self):
        bad = (
            "def tick(self, engine):\n"
            "    waiting = set(self.ids)\n"
            "    for item in waiting:\n"
            "        self.serve(item)\n"
        )
        finding = _only(lint_text(bad, rules="R1"))
        assert "set" in finding.message
        clean = bad.replace("in waiting:", "in sorted(waiting):")
        assert not lint_text(clean, rules="R1").findings

    def test_dict_view_is_warning_severity(self):
        warm = (
            "def tick(self, engine):\n"
            "    for key, value in self.buckets.items():\n"
            "        self.serve(key, value)\n"
        )
        finding = _only(lint_text(warm, rules="R1"))
        assert finding.severity == "warning"

    def test_cold_function_ignored_without_force_hot(self):
        cold = (
            "import time\n"
            "def report(self):\n"
            "    return time.monotonic()\n"
        )
        assert not lint_text(cold, rules="R1", force_hot=False).findings


class TestChannelDisciplineR2:
    def test_varying_receivers_allowed(self):
        good = (
            "def tick(self, engine):\n"
            "    for channel, item in pieces:\n"
            "        ports[channel].push(item)\n"
        )
        assert not lint_text(good, rules="R2").findings

    def test_indexed_pop_allowed(self):
        good = (
            "def tick(self, engine):\n"
            "    while self.backlog:\n"
            "        job = self.backlog.pop(0)\n"
        )
        assert not lint_text(good, rules="R2").findings

    def test_fabric_modules_exempt(self):
        bad = (
            "def tick(self, engine):\n"
            "    for item in batch:\n"
            "        self.out.push(item)\n"
        )
        flagged = lint_text(bad, rules="R2", rel="repro/core/x.py")
        assert flagged.findings
        exempt = lint_text(bad, rules="R2", rel="repro/fabric/x.py")
        assert not exempt.findings


class TestFloatCompareR5:
    def test_division_equality_flagged(self):
        finding = _only(lint_text(
            "def f(used, total):\n"
            "    return used / total == 1\n",
            rules="R5",
        ))
        assert finding.severity == "warning"

    def test_integer_compare_clean(self):
        assert not lint_text(
            "def f(used, total):\n"
            "    return used * 2 == total and used // 2 != total\n",
            rules="R5",
        ).findings


class TestMutableDefaultR6:
    def test_kwonly_defaults_covered(self):
        bad = (
            "def f(*, seen=set()):\n"
            "    return seen\n"
        )
        assert lint_text(bad, rules="R6").findings

    def test_call_defaults_covered(self):
        bad = (
            "def f(seen=dict()):\n"
            "    return seen\n"
        )
        assert lint_text(bad, rules="R6").findings


class TestSlotsR7:
    def test_dataclass_slots_accepted(self):
        good = (
            "from dataclasses import dataclass\n"
            "@dataclass(slots=True)\n"
            "class SpillToken:\n"
            "    addr: int\n"
        )
        assert not lint_text(good, rules="R7").findings

    def test_non_token_class_ignored(self):
        good = (
            "class BankParams:\n"
            "    def __init__(self):\n"
            "        self.ways = 4\n"
        )
        assert not lint_text(good, rules="R7").findings
