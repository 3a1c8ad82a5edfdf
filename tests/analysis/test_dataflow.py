"""May-reach-None dataflow: FlowScan facts and parameter summaries.

These pin the guard forms the interprocedural hook rule (R12) relies
on: which tests establish a non-None fact, which assignments kill it,
and how deref-unsafety propagates through parameter passing.
"""

import ast

from repro.analysis.callgraph import CallGraph
from repro.analysis.dataflow import (
    FlowScan,
    expr_path,
    param_summaries,
    unsafe_arguments,
)
from repro.analysis.source import parse_source


def scan_of(text):
    module = ast.parse(text)
    return FlowScan(module.body[0])


def graph_of(text, rel="repro/a.py"):
    source, error = parse_source(rel, text, rel=rel)
    assert source is not None, error
    return CallGraph([source], include_all=True)


class TestExprPath:
    def test_attribute_chains(self):
        expr = ast.parse("self._probe.bank", mode="eval").body
        assert expr_path(expr) == ("self", "_probe", "bank")
        assert expr_path(ast.parse("probe", mode="eval").body) == ("probe",)

    def test_non_path_expressions(self):
        assert expr_path(ast.parse("f(x)", mode="eval").body) is None
        assert expr_path(ast.parse("a + b", mode="eval").body) is None


class TestFlowScan:
    def test_is_not_none_guard_establishes_fact(self):
        scan = scan_of(
            "def f(self):\n"
            "    if self._probe is not None:\n"
            "        self._probe.record(1)\n"
        )
        (site,) = [s for s in scan.derefs if s.path == ("self", "_probe")]
        assert site.guarded

    def test_unguarded_deref_is_seen(self):
        scan = scan_of(
            "def f(self):\n"
            "    self._probe.record(1)\n"
        )
        (site,) = [s for s in scan.derefs if s.path == ("self", "_probe")]
        assert not site.guarded

    def test_truthiness_is_not_a_fact(self):
        scan = scan_of(
            "def f(self):\n"
            "    if self._probe:\n"
            "        self._probe.record(1)\n"
        )
        (site,) = [s for s in scan.derefs if s.path == ("self", "_probe")]
        assert not site.guarded

    def test_early_return_negation(self):
        scan = scan_of(
            "def f(self):\n"
            "    if self._probe is None:\n"
            "        return\n"
            "    self._probe.record(1)\n"
        )
        (site,) = [s for s in scan.derefs if s.path == ("self", "_probe")]
        assert site.guarded

    def test_assignment_kills_fact(self):
        # Reassigning from a name of unknown status invalidates the
        # guard (a call result, by contrast, is assumed constructed).
        scan = scan_of(
            "def f(self, other):\n"
            "    if self._probe is not None:\n"
            "        self._probe = other\n"
            "        self._probe.record(1)\n"
        )
        sites = [s for s in scan.derefs if s.path == ("self", "_probe")]
        assert any(not s.guarded for s in sites)

    def test_alias_copy_carries_fact(self):
        scan = scan_of(
            "def f(self):\n"
            "    probe = self._probe\n"
            "    if probe is not None:\n"
            "        probe.record(1)\n"
        )
        (site,) = [s for s in scan.derefs if s.path == ("probe",)]
        assert site.guarded

    def test_call_sites_record_facts(self):
        scan = scan_of(
            "def f(self):\n"
            "    if self._probe is not None:\n"
            "        emit(self._probe)\n"
            "    emit(self._fault)\n"
        )
        guarded = [("self", "_probe") in s.facts for s in scan.calls]
        assert guarded == [True, False]


class TestParamSummaries:
    UNSAFE = (
        "def emit(probe, event):\n"
        "    probe.record(event)\n"
    )
    SAFE = (
        "def emit(probe, event):\n"
        "    if probe is None:\n"
        "        return\n"
        "    probe.record(event)\n"
    )

    def test_direct_unguarded_deref_marks_param(self):
        graph = graph_of(self.UNSAFE)
        summaries = param_summaries(graph)
        assert summaries[("repro/a.py", "emit")] == {"probe"}

    def test_guarded_param_is_safe(self):
        graph = graph_of(self.SAFE)
        summaries = param_summaries(graph)
        assert summaries[("repro/a.py", "emit")] == frozenset()

    def test_forwarding_propagates_unsafety(self):
        graph = graph_of(
            self.UNSAFE
            + "def relay(sink, event):\n"
            + "    emit(sink, event)\n"
        )
        summaries = param_summaries(graph)
        assert "sink" in summaries[("repro/a.py", "relay")]

    def test_unsafe_arguments_flags_hook_flow(self):
        graph = graph_of(
            self.UNSAFE
            + "class Bank:\n"
            + "    def tick(self, engine):\n"
            + "        emit(self._probe, 'bank')\n"
        )
        summaries = param_summaries(graph)
        key = ("repro/a.py", "Bank.tick")
        scan = FlowScan(graph.functions[key].node)
        hits = []
        for site in scan.calls:
            hits.extend(unsafe_arguments(
                graph, key, site, summaries,
                lambda path: path[-1] == "_probe",
            ))
        (hit,) = hits
        assert hit.path == ("self", "_probe")
        assert hit.param == "probe"
        assert hit.callee == ("repro/a.py", "emit")

    def test_guarded_call_site_is_clean(self):
        graph = graph_of(
            self.UNSAFE
            + "class Bank:\n"
            + "    def tick(self, engine):\n"
            + "        if self._probe is not None:\n"
            + "            emit(self._probe, 'bank')\n"
        )
        summaries = param_summaries(graph)
        key = ("repro/a.py", "Bank.tick")
        scan = FlowScan(graph.functions[key].node)
        hits = []
        for site in scan.calls:
            hits.extend(unsafe_arguments(
                graph, key, site, summaries,
                lambda path: path[-1] == "_probe",
            ))
        assert not hits
