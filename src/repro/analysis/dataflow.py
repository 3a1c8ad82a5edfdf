"""Intraprocedural may-reach-None dataflow, stitched along call edges.

The hook-gating contract (DESIGN.md 6.2/6.3) is a *path* property:
every dereference of an optional hook must be dominated by an
``is not None`` test.  R4 checks the syntactic form (the dereference
sits inside a guarded branch); this module computes the flow-sensitive
form -- a small forward analysis over one function's statement list
tracking the set of expression paths known to be non-``None`` at each
point -- so early-return guards::

    if self._probe is None:
        return
    self._probe.record(...)

and guarded call sites are recognized, and so that per-parameter
*summaries* ("this function dereferences parameter ``probe`` on some
path without testing it") can be stitched interprocedurally along the
call graph (R12).

The lattice element is a set of *paths*: tuples of attribute names
rooted at a local name, ``("self", "_probe")`` for ``self._probe``,
``("probe",)`` for a local alias.  Transfer functions:

* ``P is not None`` in a test adds P to the true branch;
  ``P is None`` adds P to the false branch; ``and``/``or`` chains,
  ternaries, ``assert`` and ``isinstance`` tests distribute as usual;
* a branch that always terminates (return/raise/continue/break)
  propagates the surviving branch's facts past the ``if``;
* assigning to a path kills every fact it prefixes; assigning a call
  result or a non-None constant *generates* a fact; assigning one
  tracked path to another copies its fact (the alias idiom);
* loops and ``try`` bodies are entered with the facts their own
  assignments cannot invalidate (conservative kill-set prepass).

Truthiness (``if self._probe:``) deliberately does not generate a fact
-- same policy as R4: a hook wrapper defining ``__bool__`` would
silently disable itself.

The analysis records every *dereference site* (attribute access,
subscript, or call on a tracked path) and every *call site* together
with the facts holding there; :func:`param_summaries` folds the sites
of every function into a fixpoint map of parameters dereferenced
without a dominating guard, including through nested helper calls.
"""

import ast

_MAX_PATH_DEPTH = 4

_TERMINATORS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def expr_path(expr):
    """Attribute path of *expr* rooted at a bare name, or None.

    ``self._probe`` -> ``("self", "_probe")``; ``probe`` -> ``("probe",)``;
    anything rooted in a call/subscript (not a stable storage location)
    is untracked.
    """
    parts = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or len(parts) >= _MAX_PATH_DEPTH:
        return None
    parts.append(node.id)
    parts.reverse()
    return tuple(parts)


def _assigned_paths(node):
    """Paths assigned anywhere under *node* (loop/try kill prepass)."""
    killed = set()
    for sub in ast.walk(node):
        targets = ()
        if isinstance(sub, ast.Assign):
            targets = sub.targets
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            targets = (sub.target,)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            targets = (sub.target,)
        for target in targets:
            path = expr_path(target)
            if path is not None:
                killed.add(path)
    return killed


def _kill(facts, path):
    return frozenset(
        fact for fact in facts if fact[:len(path)] != path
    )


class DerefSite:
    """One dereference of a tracked path, with the facts holding there."""

    __slots__ = ("path", "node", "facts")

    def __init__(self, path, node, facts):
        self.path = path
        self.node = node
        self.facts = facts

    @property
    def guarded(self):
        return self.path in self.facts


class CallSite:
    """One call expression, with the facts holding at evaluation."""

    __slots__ = ("node", "facts")

    def __init__(self, node, facts):
        self.node = node
        self.facts = facts


class FlowScan:
    """Run the non-None analysis over one function definition."""

    def __init__(self, func_node):
        self.func_node = func_node
        self.derefs = []  # DerefSite, in source order of the walk
        self.calls = []   # CallSite
        self._walk_body(func_node.body, frozenset())

    # -- tests --------------------------------------------------------------

    def _facts_from_test(self, test):
        """(facts added when true, facts added when false)."""
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            comparator = test.comparators[0]
            if (isinstance(comparator, ast.Constant)
                    and comparator.value is None):
                path = expr_path(test.left)
                if path is not None:
                    if isinstance(test.ops[0], ast.IsNot):
                        return frozenset((path,)), frozenset()
                    if isinstance(test.ops[0], ast.Is):
                        return frozenset(), frozenset((path,))
            return frozenset(), frozenset()
        if (isinstance(test, ast.Call)
                and isinstance(test.func, ast.Name)
                and test.func.id == "isinstance"
                and test.args):
            path = expr_path(test.args[0])
            if path is not None:
                return frozenset((path,)), frozenset()
            return frozenset(), frozenset()
        if isinstance(test, ast.BoolOp):
            true_facts, false_facts = frozenset(), frozenset()
            for value in test.values:
                sub_true, sub_false = self._facts_from_test(value)
                if isinstance(test.op, ast.And):
                    # All conjuncts hold on the true edge.
                    true_facts |= sub_true
                else:
                    # All disjuncts failed on the false edge.
                    false_facts |= sub_false
            return true_facts, false_facts
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            sub_true, sub_false = self._facts_from_test(test.operand)
            return sub_false, sub_true
        return frozenset(), frozenset()

    # -- expressions --------------------------------------------------------

    def _eval(self, expr, facts):
        """Record deref/call sites in *expr* under *facts*.

        Handles the guard forms that live inside expressions: ``and``
        short-circuiting and ternaries evaluate their right/branch
        operands under the facts their left/test established.
        """
        if expr is None:
            return
        if isinstance(expr, ast.BoolOp):
            running = facts
            for value in expr.values:
                self._eval(value, running)
                sub_true, sub_false = self._facts_from_test(value)
                running = running | (
                    sub_true if isinstance(expr.op, ast.And) else sub_false
                )
            return
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, facts)
            sub_true, sub_false = self._facts_from_test(expr.test)
            self._eval(expr.body, facts | sub_true)
            self._eval(expr.orelse, facts | sub_false)
            return
        if isinstance(expr, ast.Lambda):
            return  # separate scope; not analyzed here
        if isinstance(expr, ast.Attribute):
            base = expr_path(expr.value)
            if base is not None:
                self.derefs.append(DerefSite(base, expr, facts))
                # The chain root was evaluated as part of the path.
                return
        if isinstance(expr, ast.Subscript):
            base = expr_path(expr.value)
            if base is not None:
                self.derefs.append(DerefSite(base, expr, facts))
            else:
                self._eval(expr.value, facts)
            self._eval(expr.slice, facts)
            return
        if isinstance(expr, ast.Call):
            func_base = None
            if isinstance(expr.func, ast.Name):
                func_base = expr_path(expr.func)
            if func_base is not None:
                # Calling a tracked local (stored hook callable).
                self.derefs.append(DerefSite(func_base, expr, facts))
            else:
                self._eval(expr.func, facts)
            for arg in expr.args:
                self._eval(arg, facts)
            for keyword in expr.keywords:
                self._eval(keyword.value, facts)
            self.calls.append(CallSite(expr, facts))
            return
        if isinstance(expr, ast.Compare):
            # `P is None` tests the pointer, it does not dereference it.
            comparator = expr.comparators[0] if expr.comparators else None
            if (len(expr.ops) == 1
                    and isinstance(expr.ops[0], (ast.Is, ast.IsNot))
                    and isinstance(comparator, ast.Constant)
                    and comparator.value is None
                    and expr_path(expr.left) is not None):
                return
            for child in ast.iter_child_nodes(expr):
                self._eval(child, facts)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.comprehension)):
                self._eval(child, facts)
            elif isinstance(child, ast.keyword):
                self._eval(child.value, facts)

    # -- statements ---------------------------------------------------------

    def _assign(self, target, value, facts):
        path = expr_path(target)
        if path is None:
            # Tuple targets etc.: kill each component we can name.
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    facts = self._assign(element, None, facts)
            return facts
        facts = _kill(facts, path)
        if value is None:
            return facts
        value_path = expr_path(value)
        if value_path is not None and value_path in facts:
            facts |= frozenset((path,))
        elif isinstance(value, ast.Call):
            facts |= frozenset((path,))
        elif isinstance(value, ast.Constant) and value.value is not None:
            facts |= frozenset((path,))
        elif isinstance(value, (ast.List, ast.Tuple, ast.Dict, ast.Set,
                                ast.ListComp, ast.DictComp, ast.SetComp)):
            facts |= frozenset((path,))
        return facts

    def _walk_body(self, body, facts):
        """Returns (facts after the block, always-terminates flag)."""
        for stmt in body:
            facts, terminated = self._walk_stmt(stmt, facts)
            if terminated:
                return facts, True
        return facts, False

    def _walk_stmt(self, stmt, facts):
        if isinstance(stmt, _TERMINATORS):
            if isinstance(stmt, ast.Return):
                self._eval(stmt.value, facts)
            elif isinstance(stmt, ast.Raise):
                self._eval(stmt.exc, facts)
            return facts, True
        if isinstance(stmt, ast.If):
            self._eval(stmt.test, facts)
            true_facts, false_facts = self._facts_from_test(stmt.test)
            body_out, body_term = self._walk_body(
                stmt.body, facts | true_facts
            )
            else_out, else_term = self._walk_body(
                stmt.orelse, facts | false_facts
            )
            if body_term and else_term:
                return facts, True
            if body_term:
                return else_out, False
            if else_term:
                return body_out, False
            return body_out & else_out, False
        if isinstance(stmt, ast.Assert):
            self._eval(stmt.test, facts)
            true_facts, _ = self._facts_from_test(stmt.test)
            return facts | true_facts, False
        if isinstance(stmt, ast.Assign):
            self._eval(stmt.value, facts)
            for target in stmt.targets:
                facts = self._assign(target, stmt.value, facts)
            return facts, False
        if isinstance(stmt, ast.AnnAssign):
            self._eval(stmt.value, facts)
            if stmt.value is not None:
                facts = self._assign(stmt.target, stmt.value, facts)
            return facts, False
        if isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value, facts)
            path = expr_path(stmt.target)
            if path is not None:
                facts = _kill(facts, path)
            return facts, False
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter, facts)
            killed = _assigned_paths(stmt)
            loop_facts = frozenset(
                fact for fact in facts
                if not any(fact[:len(path)] == path for path in killed)
            )
            loop_facts = self._assign(stmt.target, None, loop_facts)
            self._walk_body(stmt.body, loop_facts)
            self._walk_body(stmt.orelse, loop_facts)
            return loop_facts, False
        if isinstance(stmt, ast.While):
            killed = _assigned_paths(stmt)
            loop_facts = frozenset(
                fact for fact in facts
                if not any(fact[:len(path)] == path for path in killed)
            )
            self._eval(stmt.test, loop_facts)
            true_facts, _ = self._facts_from_test(stmt.test)
            self._walk_body(stmt.body, loop_facts | true_facts)
            self._walk_body(stmt.orelse, loop_facts)
            return loop_facts, False
        if isinstance(stmt, ast.Try):
            killed = _assigned_paths(stmt)
            safe = frozenset(
                fact for fact in facts
                if not any(fact[:len(path)] == path for path in killed)
            )
            body_out, _ = self._walk_body(stmt.body, facts)
            for handler in stmt.handlers:
                self._walk_body(handler.body, safe)
            self._walk_body(stmt.orelse, body_out)
            final_out, final_term = self._walk_body(stmt.finalbody, safe)
            return safe, final_term
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, facts)
                if item.optional_vars is not None:
                    facts = self._assign(
                        item.optional_vars, item.context_expr, facts
                    )
            return self._walk_body(stmt.body, facts)
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, facts)
            return facts, False
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                path = expr_path(target)
                if path is not None:
                    facts = _kill(facts, path)
            return facts, False
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Global, ast.Nonlocal, ast.Pass)):
            return facts, False
        # Anything unmodeled: evaluate child expressions conservatively.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._eval(child, facts)
        return facts, False


def function_params(func_node):
    """Positional parameter names, ``self``/``cls`` included."""
    args = func_node.args
    return [arg.arg for arg in args.posonlyargs + args.args]


def _scan(callgraph, key, cache):
    scan = cache.get(key)
    if scan is None:
        scan = FlowScan(callgraph.functions[key].node)
        cache[key] = scan
    return scan


def param_summaries(callgraph):
    """Fixpoint map: key -> frozenset of deref-unsafe parameter names.

    A parameter is *deref-unsafe* when some path through its function
    dereferences it (attribute access, subscript, call) without a
    dominating non-None fact -- directly, or by handing it to another
    function's deref-unsafe parameter unguarded.  Callers use this to
    flag hook expressions flowing into an unsafe parameter (R12).
    """
    scans = {}
    summaries = {}
    # Seed: direct unguarded dereferences of a parameter.
    for key in sorted(callgraph.functions):
        info = callgraph.functions[key]
        params = set(function_params(info.node)) - {"self", "cls"}
        unsafe = set()
        if params:
            scan = _scan(callgraph, key, scans)
            for site in scan.derefs:
                if (len(site.path) == 1 and site.path[0] in params
                        and not site.guarded):
                    unsafe.add(site.path[0])
        summaries[key] = unsafe
    # Fixpoint: passing an untested parameter into an unsafe parameter
    # makes the forwarding parameter unsafe too.
    changed = True
    while changed:
        changed = False
        for key in sorted(callgraph.functions):
            info = callgraph.functions[key]
            params = set(function_params(info.node)) - {"self", "cls"}
            if not params:
                continue
            pending = params - summaries[key]
            if not pending:
                continue
            scan = _scan(callgraph, key, scans)
            for site in scan.calls:
                hits = unsafe_arguments(
                    callgraph, key, site, summaries,
                    lambda path: (len(path) == 1 and path[0] in pending),
                )
                for hit in hits:
                    if hit.path[0] not in summaries[key]:
                        summaries[key].add(hit.path[0])
                        changed = True
    return {key: frozenset(value) for key, value in summaries.items()}


class UnsafeArgument:
    """One argument flowing unguarded into a deref-unsafe parameter."""

    __slots__ = ("path", "node", "callee", "param")

    def __init__(self, path, node, callee, param):
        self.path = path
        self.node = node
        self.callee = callee  # (rel, qualname) of the dereferencing callee
        self.param = param    # the unsafe parameter name it lands on


def unsafe_arguments(callgraph, caller_key, site, summaries, match):
    """Arguments at *site* flowing unguarded into an unsafe parameter.

    *match* selects which argument paths are of interest; an argument
    already covered by a non-None fact at the call site is safe.
    Returns :class:`UnsafeArgument` hits (first matching callee wins,
    in sorted key order, so messages are deterministic).
    """
    call = site.node
    callees = callgraph.resolve_call(caller_key, call)
    if not callees:
        return []
    hits = []
    for position, arg in enumerate(call.args):
        path = expr_path(arg)
        if path is None or not match(path) or path in site.facts:
            continue
        hit = _position_unsafe(callgraph, callees, position, call,
                               summaries)
        if hit is not None:
            hits.append(UnsafeArgument(path, arg, hit[0], hit[1]))
    for keyword in call.keywords:
        if keyword.arg is None:
            continue
        path = expr_path(keyword.value)
        if path is None or not match(path) or path in site.facts:
            continue
        for callee in callees:
            if keyword.arg in summaries.get(callee, ()):
                hits.append(UnsafeArgument(
                    path, keyword.value, callee, keyword.arg
                ))
                break
    return hits


def _position_unsafe(callgraph, callees, position, call, summaries):
    """First (callee key, param name) argument *position* lands on
    among the callees' unsafe parameters, or None."""
    method_call = isinstance(call.func, ast.Attribute)
    for callee in callees:
        info = callgraph.functions.get(callee)
        if info is None:
            continue
        params = function_params(info.node)
        offset = 0
        if params and params[0] in ("self", "cls") and method_call:
            offset = 1
        index = position + offset
        if index < len(params) and params[index] in summaries.get(
                callee, ()):
            return callee, params[index]
    return None
