"""R4/R6: hook gating and mutable default arguments.

The opt-in instrumentation layers (repro.faults, repro.telemetry,
repro.tracing, repro.checkpoint) hang off well-known attributes --
``_fault`` and the observer ``_probe`` on components, ``watchdog`` /
``sampler`` / ``probe`` on the engine, ``ledger`` / ``telemetry`` /
``checkpointer`` on the accelerator system -- that are ``None`` in the
default configuration.  The contract (DESIGN.md
6.2/6.3) is that every invocation is guarded by an ``is not None``
test (directly, through a local alias, in a ternary, or as the left
arm of an ``and``), so the uninstrumented hot path pays exactly one
pointer test and the disabled-gate census in
benchmarks/test_probe_gates.py stays <3%.

A hook handed to a helper (``emit(self._probe, ...)``) counts as a
use too: R4 demands the same gate at the call site instead of proving
every callee None-tolerant, so the check stays one syntactic pass.
"""

import ast

from repro.analysis.rules.base import Rule

# Attribute names that carry optional instrumentation objects.
HOOK_ATTRS = frozenset({
    "_fault", "_probe",             # component-level slots
    "watchdog", "sampler", "probe",  # engine-level hooks
    "ledger", "telemetry",          # system-level hooks
    "checkpointer",                 # checkpoint orchestration hook
})

# The instrumentation packages themselves call their own methods
# unconditionally -- that is their job, not a gating violation.
_EXEMPT_PATH_MARKERS = ("repro/faults/", "repro/telemetry/",
                        "repro/tracing/", "repro/checkpoint/",
                        "repro/analysis/")


def _hook_of(expr, assignments):
    """Canonical hook attribute behind *expr*, or None.

    Matches ``self._probe`` style attributes directly and function-local
    aliases (``probe = self._probe; ... probe.foo()``) through the
    assignment table.
    """
    if isinstance(expr, ast.Attribute) and expr.attr in HOOK_ATTRS:
        return expr.attr
    if isinstance(expr, ast.Name):
        for value in assignments.get(expr.id, ()):
            if isinstance(value, ast.Attribute) and value.attr in HOOK_ATTRS:
                return value.attr
    return None


def _test_polarity(test, hook, assignments):
    """How *test* gates *hook*: 'not-none', 'is-none', or None.

    Searches the whole test expression, so BoolOp chains like
    ``self._probe is not None and x.issued_at >= 0`` and calls *inside*
    the test (``self._fault is not None and self._fault.blocked()``)
    are recognized.
    """
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        comparator = node.comparators[0]
        if not (isinstance(comparator, ast.Constant)
                and comparator.value is None):
            continue
        if _hook_of(node.left, assignments) != hook:
            continue
        if isinstance(node.ops[0], ast.IsNot):
            return "not-none"
        if isinstance(node.ops[0], ast.Is):
            return "is-none"
    return None


def _branch_of(conditional, child):
    """Which limb of an If/IfExp/While *child* sits in."""
    if child is conditional.test:
        return "test"
    body = conditional.body if isinstance(conditional.body, list) \
        else [conditional.body]
    if any(child is stmt for stmt in body):
        return "body"
    return "orelse"


class UngatedHookRule(Rule):
    """R4: every optional-hook call or hand-off behind `is not None`."""

    id = "R4"
    name = "ungated-hook"
    severity = "error"
    summary = ("fault/probe/engine hook calls and hook arguments must be "
               "is-None gated")
    rationale = (
        "Hooks are None in the default configuration; an ungated call "
        "is an AttributeError the moment the instrumented test matrix "
        "does not cover that branch, and a truthiness gate (`if "
        "self._probe:`) invites hooks with __bool__/__len__ semantics to "
        "silently drop events.  The explicit pointer test is also the "
        "entire disabled-hook cost model behind the <3% overhead gates.  "
        "Handing the hook to a helper moves the same dereference one "
        "call away, so the hand-off needs the same gate."
    )
    hint = ("wrap the call in `if <hook> is not None:` (alias via a "
            "local first if it is used repeatedly)")

    POSITIVE = (
        "def tick(self, engine):\n"
        "    self._probe.bank_tick(self, engine.now)\n"
    )
    NEGATIVE = (
        "def tick(self, engine):\n"
        "    if self._probe is not None:\n"
        "        self._probe.bank_tick(self, engine.now)\n"
        "        emit(self._probe, 'bank')\n"
        "    probe = self._probe\n"
        "    latency = 0 if probe is None else probe.dram_latency()\n"
    )

    def check(self, source, ctx):
        if any(marker in source.rel for marker in _EXEMPT_PATH_MARKERS):
            return
        for info in source.functions:
            assignments = source.local_assignments(info.node)
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                if source.enclosing_function(node) is not info.node:
                    continue  # nested def: reported under its own name
                for hook, use in self._hook_uses(node, assignments):
                    if self._guarded(source, info.node, node, hook,
                                     assignments):
                        continue
                    yield self.finding(
                        source, node,
                        f"{use} in '{info.qualname}' is not guarded by "
                        f"an `is not None` test on '{hook}'",
                    )

    @staticmethod
    def _hook_uses(call, assignments):
        """(hook, description) per hook *call* dereferences or passes on."""
        func = call.func
        if isinstance(func, ast.Attribute):
            hook = _hook_of(func.value, assignments)
            if hook is not None:
                yield hook, f"'{ast.unparse(func)}(...)'"
        for arg in call.args + [keyword.value for keyword in call.keywords]:
            hook = _hook_of(arg, assignments)
            if hook is not None:
                yield hook, (f"'{ast.unparse(arg)}' passed to "
                             f"'{ast.unparse(func)}'")

    @staticmethod
    def _guarded(source, func_node, call, hook, assignments):
        for ancestor, child in source.ancestors(call):
            if ancestor is func_node:
                break
            if isinstance(ancestor, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.ClassDef)):
                break
            if not isinstance(ancestor, (ast.If, ast.IfExp, ast.While)):
                continue
            polarity = _test_polarity(ancestor.test, hook, assignments)
            if polarity is None:
                continue
            branch = _branch_of(ancestor, child)
            if polarity == "not-none" and branch in ("body", "test"):
                return True
            if polarity == "is-none" and branch == "orelse":
                return True
        return False


_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict",
})


class MutableDefaultRule(Rule):
    """R6: no mutable default arguments anywhere in repro.*."""

    id = "R6"
    name = "mutable-default-arg"
    severity = "error"
    summary = "no mutable default arguments"
    rationale = (
        "A mutable default is shared across every call -- in a "
        "simulator that replays the same configuration twice to prove "
        "bit-identity, state smuggled between runs through a default "
        "list/dict is a determinism bug with no local symptom."
    )
    hint = "default to None and materialize inside the function body"

    POSITIVE = (
        "def enqueue(self, items=[]):\n"
        "    return items\n"
    )
    NEGATIVE = (
        "def enqueue(self, items=None):\n"
        "    return items if items is not None else []\n"
    )

    def check(self, source, ctx):
        for info in source.functions:
            args = info.node.args
            defaults = list(args.defaults) + [
                default for default in args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                if isinstance(default, _MUTABLE_DISPLAYS) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS
                ):
                    yield self.finding(
                        source, default,
                        f"mutable default argument in '{info.qualname}'",
                    )
