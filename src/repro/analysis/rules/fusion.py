"""R13: whole-region fusion purity.

The macro-tick engine (DESIGN.md 6.9) lets a component cover a whole
run of cycles with one ``step_n(engine, budget)`` call, on the
contract that the batch replicates the exact per-cycle effects of the
fused window *without* consulting per-cycle context: the engine
advances ``now`` only after the call returns, so ``engine.now`` is
frozen at the run's first cycle for the entire batch.  A kernel that
reads ``engine.now`` per element -- inside the loop or comprehension
that walks the batch -- is almost certainly stamping every element
with the run's start cycle where the unfused path would have stamped
``start, start+1, ...``: the fused and unfused runs then diverge in a
way no cycle-count assertion catches (timestamps live in stats,
traces, or queued tokens, not in ``result.cycles``).

Reading ``engine.now`` once, outside any per-element loop, stays
legal: that is how a kernel derives the window base to compute
per-element cycles arithmetically (``base + i``), which is the correct
fused form.

R13 checks that clock rule over the whole *fused region* -- ``step_n``
itself plus everything reachable from it through the call graph --
together with the other silent-cycle clauses of the protocol: fused
cycles may not invoke instrumentation hooks the kernel did not
decline, may not push into channels, may not pop from a channel whose
space watchers were not declined, and may not wake other components.
"""

import ast

from repro.analysis.rules.base import Rule

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)


def _engine_param(node):
    """The name bound to the engine inside a ``step_n`` definition.

    The protocol signature is ``step_n(self, engine, budget)``; tolerate
    free functions (``step_n(engine, budget)``) by skipping a leading
    ``self``/``cls``.
    """
    args = [arg.arg for arg in node.args.posonlyargs + node.args.args]
    if args and args[0] in ("self", "cls"):
        args = args[1:]
    return args[0] if args else None


def _now_reads(node, engine_name):
    """Yield ``engine.now`` attribute reads anywhere under *node*."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and sub.attr == "now"
            and isinstance(sub.value, ast.Name)
            and sub.value.id == engine_name
        ):
            yield sub


def per_element_parts(scope):
    """Sub-nodes of *scope* that re-evaluate once per element, or None.

    For a loop, everything under it -- body, condition, and iterable
    included -- re-evaluates per iteration.  For a comprehension, the
    element expression, every ``if`` filter, and every generator source
    except the first (which evaluates once, outside the scope).  R13
    scans these for ``engine.now`` reads and for per-element calls to
    clock-reading helpers.
    """
    if isinstance(scope, _LOOPS):
        return [scope]
    if isinstance(scope, _COMPREHENSIONS):
        parts = ([scope.key, scope.value]
                 if isinstance(scope, ast.DictComp)
                 else [scope.elt])
        parts += [cond for gen in scope.generators for cond in gen.ifs]
        parts += [gen.iter for gen in scope.generators[1:]]
        return parts
    return None


def loop_scoped(func_node, collect):
    """Unique nodes *collect* yields from per-element parts of *func_node*.

    *collect* is a callable taking one sub-tree and yielding AST nodes;
    nodes found under nested per-element scopes are deduplicated by
    identity, preserving first-visit order.
    """
    seen = set()
    found = []
    for scope in ast.walk(func_node):
        parts = per_element_parts(scope)
        if parts is None:
            continue
        for part in parts:
            for node in collect(part):
                if id(node) in seen:
                    continue
                seen.add(id(node))
                found.append(node)
    return found


# -- R13: whole-region purity ---------------------------------------------

# Component-level instrumentation hooks whose side effects must not
# occur during silently fused cycles.
_FUSED_HOOK_ATTRS = frozenset({"_fault", "_probe"})

# Channel space-watcher lists; a pop during a silent cycle is legal
# only when a terminating decline proves both are empty.
_SPACE_ATTRS = frozenset({"_space_subs", "_space_requests"})

# Traversal does not descend into the engine/channel primitives: their
# internals are the scheduler's contract, not the fused kernel's, and
# the kernel-visible operations on them (push/pop/wake) are checked at
# the call site by name.
_SKIP_CLASSES = frozenset({"Channel", "DelayLine", "Engine"})


def _terminates(body):
    return any(isinstance(stmt, (ast.Return, ast.Raise)) for stmt in body)


def _decline_candidates(test):
    """Attribute names a terminating ``if`` declines fusion on.

    Recognizes the protocol's two decline spellings: ``X.attr is not
    None`` ("hook present, stay per-cycle") and a bare truthy attribute
    in an ``or`` chain ("space watchers registered, stay per-cycle").
    ``and`` chains are not declines -- a single truthy conjunct does
    not guarantee the bail-out.
    """
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        for value in test.values:
            yield from _decline_candidates(value)
        return
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and isinstance(test.left, ast.Attribute)):
        yield test.left.attr
        return
    if isinstance(test, ast.Attribute):
        yield test.attr


def _declined_names(func_node):
    declined = set()
    for stmt in ast.walk(func_node):
        if isinstance(stmt, ast.If) and _terminates(stmt.body):
            declined.update(_decline_candidates(stmt.test))
    return declined


def _hook_derefs(node):
    """Yield (hook name, anchor node) dereferences under *node*."""
    for sub in ast.walk(node):
        if (isinstance(sub, (ast.Attribute, ast.Subscript))
                and isinstance(sub.value, ast.Attribute)
                and sub.value.attr in _FUSED_HOOK_ATTRS):
            yield sub.value.attr, sub
        elif (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _FUSED_HOOK_ATTRS):
            yield sub.func.attr, sub


def _reads_now(func_node):
    """Does *func_node* read the simulation clock anywhere?

    Through its own ``engine`` parameter or through a stored engine
    reference (``self._engine.now`` / ``self.engine.now``).
    """
    for sub in ast.walk(func_node):
        if not (isinstance(sub, ast.Attribute) and sub.attr == "now"):
            continue
        base = sub.value
        if isinstance(base, ast.Name) and base.id == "engine":
            return True
        if isinstance(base, ast.Attribute) and base.attr in ("engine",
                                                             "_engine"):
            return True
    return False


class FusionPurityRule(Rule):
    """R13: the whole fused region honors the silent-cycle contract."""

    id = "R13"
    name = "fusion-purity"
    severity = "error"
    summary = ("step_n and everything it reaches may only touch state "
               "its decline tests cover")
    rationale = (
        "A fused run replays silent cycles in bulk, so the protocol "
        "(DESIGN.md 6.9) is a whole-region property: any helper the "
        "kernel calls can invoke an undeclined hook, push a token, pop "
        "past a waiting space watcher, or wake another component -- "
        "side effects the per-cycle path would have interleaved with "
        "other components' ticks, silently breaking fused/unfused "
        "bit-identity.  The engine advances now only after step_n "
        "returns, so a per-element engine.now read anywhere in the "
        "region stamps every element with the run's first cycle.  R13 "
        "closes the region over the call graph and checks every clause."
    )
    hint = (
        "decline fusion (return 0) while the offending hook or space "
        "watcher is active, read engine.now once before a loop and "
        "derive per-element cycles as base + index, keep the mutation "
        "on the per-cycle tick() path, or restructure the helper so the "
        "fused call cannot reach it"
    )

    POSITIVE = (
        "class RoguePE:\n"
        "    def step_n(self, engine, budget):\n"
        "        self._probe.record(budget)\n"
        "        return 0\n"
    )
    NEGATIVE = (
        "class QuietPE:\n"
        "    def step_n(self, engine, budget):\n"
        "        if self._probe is not None or self._fault is not None:\n"
        "            return 0\n"
        "        base = engine.now\n"
        "        m = self._drain(budget)\n"
        "        self.stats.busy += m\n"
        "        self.marks.append(base + m)\n"
        "        return m\n"
        "    def _drain(self, budget):\n"
        "        count = 0\n"
        "        for _ in range(budget):\n"
        "            count += 1\n"
        "        return count\n"
    )

    def check(self, source, ctx):
        buckets = ctx.memo.get(self.id)
        if buckets is None:
            buckets = self._analyze(ctx)
            ctx.memo[self.id] = buckets
        for node, message in buckets.get(source.rel, ()):
            yield self.finding(source, node, message)

    # -- whole-program analysis ---------------------------------------------

    def _analyze(self, ctx):
        callgraph = ctx.callgraph
        buckets = {}
        flagged = set()  # (rel, line, facet) dedup across kernels

        def report(rel, node, facet, message):
            marker = (rel, getattr(node, "lineno", 1), facet)
            if marker in flagged:
                return
            flagged.add(marker)
            buckets.setdefault(rel, []).append((node, message))

        for key in sorted(callgraph.functions):
            info = callgraph.functions[key]
            if info.name != "step_n":
                continue
            owner = info.class_name or key[1]
            label = f"'{owner}.step_n'" if info.class_name \
                else "'step_n'"
            # The kernel declines its hooks up front, so a call *through*
            # a declined hook (`self._probe.bank_alloc(...)` behind `if
            # self._probe is not None`) is dead in the fused window --
            # traversing its name-dispatch edge would drag unrelated
            # `issue` methods into the region.
            declined_hooks = (_declined_names(info.node)
                              & _FUSED_HOOK_ATTRS)
            region = self._region(callgraph, key, declined_hooks)
            declined = set()
            for region_key in region:
                declined |= _declined_names(
                    callgraph.functions[region_key].node
                )
            space_ok = bool(declined & _SPACE_ATTRS)
            for region_key in sorted(region):
                self._check_function(
                    callgraph, key, region_key, region, declined,
                    space_ok, label, report,
                )
        for rel in buckets:
            buckets[rel].sort(key=lambda pair: (
                getattr(pair[0], "lineno", 1),
                getattr(pair[0], "col_offset", 0),
                pair[1],
            ))
        return buckets

    @staticmethod
    def _region(callgraph, seed, declined_hooks):
        """Fused region: closure over call edges alive under the declines."""

        def through_declined(call):
            node = call.func
            while isinstance(node, ast.Attribute):
                if node.attr in declined_hooks:
                    return True
                node = node.value
            return False

        return callgraph.reachable_from(
            [seed], skip_classes=_SKIP_CLASSES, skip_call=through_declined
        )

    def _check_function(self, callgraph, step_key, region_key, region,
                        declined, space_ok, label, report):
        rel = region_key[0]
        info = callgraph.functions[region_key]
        node = info.node
        here = (f"in '{info.qualname}' (fused region of {label})"
                if region_key != step_key else f"in {label}")
        for hook, anchor in _hook_derefs(node):
            if hook not in declined:
                report(
                    rel, anchor, f"hook:{hook}",
                    f"'{hook}' dereference {here} without a fusion "
                    f"decline on '{hook}' (hook side effects must not "
                    f"run inside silently fused cycles)",
                )
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)):
                continue
            attr = call.func.attr
            if attr == "push":
                report(
                    rel, call, "push",
                    f"channel push {here}: fused cycles are silent and "
                    f"must not produce tokens",
                )
            elif attr == "pop" and not space_ok:
                report(
                    rel, call, "pop",
                    f"channel pop {here} without declining fusion on "
                    f"registered space watchers (_space_subs / "
                    f"_space_requests): a silent pop would skip their "
                    f"wake",
                )
            elif attr in ("wake", "wake_at"):
                if not any(isinstance(arg, ast.Name)
                           and arg.id == "self" for arg in call.args):
                    report(
                        rel, call, "wake",
                        f"wake of another component {here}: fused "
                        f"cycles must not alter other components' "
                        f"schedules",
                    )
        engine_name = _engine_param(node)
        if engine_name is not None:
            reads = loop_scoped(
                node, lambda part: _now_reads(part, engine_name)
            )
            for read in reads:
                report(
                    rel, read, "now",
                    f"per-element engine.now read {here} (now is "
                    f"frozen for the whole fused batch)",
                )
        # Per-element call sites: a helper that reads the clock even
        # once becomes a per-element read when invoked from a loop.
        calls = loop_scoped(
            node,
            lambda part: (sub for sub in ast.walk(part)
                          if isinstance(sub, ast.Call)),
        )
        for call in calls:
            for callee in callgraph.resolve_call(region_key, call):
                if callee not in region or callee == region_key:
                    continue
                callee_info = callgraph.functions[callee]
                if _reads_now(callee_info.node):
                    report(
                        rel, call, "now-call",
                        f"per-element call to "
                        f"'{callee_info.qualname}' {here}, which "
                        f"reads the simulation clock (now is frozen "
                        f"for the whole fused batch)",
                    )
                    break
