"""Tree-wide name-resolved call graph (the whole-program index).

Generalizes the hot-path classifier's reachability sweep into the
index R13's fused-region walk (DESIGN.md 6.10) runs on: every function
definition in the analyzable packages, resolved call edges between
them, per-class method tables, and bound-method alias tables.

Resolution is *name-based* over :data:`CALLGRAPH_PACKAGES`, for the
same reason the hot-path classifier's is (DESIGN.md 6.5): the engine
and the component protocol dispatch dynamically (``component.tick``,
``self._decode_step``), so an exact static call graph does not exist.
The deliberate over-approximations, and the two refinements that keep
them useful:

* an attribute call ``x.meth(...)`` resolves to *every* method named
  ``meth`` -- except that ``self.meth(...)`` inside a class that
  defines ``meth`` resolves to exactly that method (the common case,
  and the one the fusion-purity traversal depends on);
* bound-method aliases (``self._decode_step = self._decode_edge_beats``
  at construction, ``decode = self._decode_step; decode()`` in the
  kernel) resolve through a per-class alias table, so indirection
  through a stored bound method does not truncate the traversal;
* a bare-name call resolves to same-file definitions first, falling
  back to every definition of that name tree-wide.

A call that resolves to nothing (stdlib, numpy, a channel primitive)
simply has no out-edge; soundness notes live with each pass that
consumes the graph.
"""

import ast
from collections import deque

# Packages whose definitions participate in whole-program resolution.
# Strictly wider than the hot-path set: a fused kernel may reach into
# the instrumentation layers (faults, telemetry, tracing, checkpoint)
# through an undeclined hook, and the region walk must follow it.
CALLGRAPH_PACKAGES = (
    "repro/sim/",
    "repro/core/",
    "repro/mem/",
    "repro/accel/",
    "repro/fabric/",
    "repro/faults/",
    "repro/telemetry/",
    "repro/tracing/",
    "repro/checkpoint/",
)


def in_callgraph_package(rel):
    return any(marker in rel for marker in CALLGRAPH_PACKAGES)


def _call_nodes(func_node):
    """Call expressions belonging to *func_node* itself (not nested defs)."""
    stack = [func_node]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                yield child
            stack.append(child)


class CallGraph:
    """Function index + resolved call edges over the analyzable tree.

    Functions are keyed by ``(rel, qualname)``.  ``include_all=True``
    (fixture snippets, self-checks) admits every parsed file instead of
    only :data:`CALLGRAPH_PACKAGES`.
    """

    def __init__(self, sources, include_all=False):
        self.include_all = include_all
        self.functions = {}   # (rel, qualname) -> FunctionInfo
        self.sources = {}     # rel -> SourceFile (in-scope files only)
        self.by_name = {}     # bare name -> sorted list of keys
        self.methods = {}     # (rel, class qualname) -> {name: key}
        self.bound_aliases = {}  # class name -> {attr: set of method names}
        self._callee_cache = {}
        self._build(sources)

    # -- construction -------------------------------------------------------

    def _in_scope(self, rel):
        return self.include_all or in_callgraph_package(rel)

    def _build(self, sources):
        for source in sources:
            if not self._in_scope(source.rel):
                continue
            self.sources[source.rel] = source
            for info in source.functions:
                key = (source.rel, info.qualname)
                self.functions[key] = info
                self.by_name.setdefault(info.name, []).append(key)
                if info.class_name is not None:
                    class_qual = info.qualname.rsplit(".", 1)[0]
                    self.methods.setdefault(
                        (source.rel, class_qual), {}
                    )[info.name] = key
                self._index_bound_aliases(source, info)
        for name in self.by_name:
            self.by_name[name].sort()

    def _index_bound_aliases(self, source, info):
        """Record ``self.attr = self.method`` bindings in *info*."""
        if info.class_name is None:
            return
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign):
                continue
            values = [node.value]
            if isinstance(node.value, ast.IfExp):
                values = [node.value.body, node.value.orelse]
            methods = set()
            for value in values:
                if (isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id == "self"):
                    methods.add(value.attr)
            if not methods:
                continue
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    self.bound_aliases.setdefault(
                        info.class_name, {}
                    ).setdefault(target.attr, set()).update(methods)

    # -- resolution ---------------------------------------------------------

    def class_of(self, key):
        """(rel, class qualname) of a method key, or None."""
        info = self.functions.get(key)
        if info is None or info.class_name is None:
            return None
        rel, qualname = key
        return (rel, qualname.rsplit(".", 1)[0])

    def method_names_for_alias(self, class_name, attr):
        """Method names a stored bound-method attribute may carry."""
        per_class = self.bound_aliases.get(class_name, {})
        names = set(per_class.get(attr, ()))
        if not names:
            # Receiver class unknown: union over every class's table.
            for table in self.bound_aliases.values():
                names.update(table.get(attr, ()))
        return names

    def resolve_call(self, caller_key, call):
        """Keys a call expression may dispatch to (sorted, possibly ())."""
        func = call.func
        caller = self.functions.get(caller_key)
        rel = caller_key[0]
        names = set()
        if isinstance(func, ast.Name):
            name = func.id
            # Local bound-method alias: ``decode = self._decode_step``.
            aliased = False
            if caller is not None:
                source = self.sources.get(rel)
                table = (source.local_assignments(caller.node)
                         if source is not None else {})
                for value in table.get(name, ()):
                    if (isinstance(value, ast.Attribute)
                            and isinstance(value.value, ast.Name)
                            and value.value.id == "self"):
                        aliased = True
                        names.add(value.attr)
                        names.update(self.method_names_for_alias(
                            caller.class_name, value.attr
                        ))
            if not aliased:
                names.add(name)
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            if (isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and caller is not None
                    and caller.class_name is not None):
                class_key = self.class_of(caller_key)
                own = self.methods.get(class_key, {}).get(attr)
                if own is not None:
                    return (own,)
                names.update(self.method_names_for_alias(
                    caller.class_name, attr
                ))
            names.add(attr)
        else:
            return ()
        keys = set()
        for name in names:
            candidates = self.by_name.get(name, ())
            same_file = [key for key in candidates if key[0] == rel]
            if isinstance(func, ast.Name) and same_file:
                keys.update(same_file)
            else:
                keys.update(candidates)
        return tuple(sorted(keys))

    def callees(self, key):
        """Sorted keys this function may call (cached)."""
        cached = self._callee_cache.get(key)
        if cached is not None:
            return cached
        info = self.functions.get(key)
        out = set()
        if info is not None:
            for call in _call_nodes(info.node):
                out.update(self.resolve_call(key, call))
        out.discard(key)
        result = tuple(sorted(out))
        self._callee_cache[key] = result
        return result

    def reachable_from(self, seeds, skip_classes=frozenset(),
                       skip_call=None):
        """Transitive closure over call edges from *seeds*.

        ``skip_classes`` prunes traversal into methods of the named
        classes (e.g. the channel primitives, whose internals are the
        engine's business, not a component contract's).  ``skip_call``
        is an optional predicate on call expressions whose edges are
        dropped (R13 drops calls made through a declined hook).
        """
        seen = set()
        queue = deque(seeds)
        while queue:
            key = queue.popleft()
            if key in seen or key not in self.functions:
                continue
            info = self.functions[key]
            if info.class_name in skip_classes:
                continue
            seen.add(key)
            if skip_call is None:
                callees = self.callees(key)
            else:
                callees = [
                    callee for call in _call_nodes(info.node)
                    if not skip_call(call)
                    for callee in self.resolve_call(key, call)
                ]
            for callee in callees:
                if callee not in seen:
                    queue.append(callee)
        return seen
