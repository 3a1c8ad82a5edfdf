"""Parsed source files: one AST parse shared by every rule.

``SourceFile`` owns everything the rules need that is derivable from a
single file in isolation -- the AST, a parent map, the function table
(with class-qualified names), the import alias map, and the inline
suppression table.  All of it is computed once per file per lint run;
rules only read.
"""

import ast
import re


# ``# simlint: disable=R1,R5 -- justification`` -- trailing on the
# offending line, or standalone on the line directly above it.  The
# justification after ``--`` is required by policy (DESIGN.md 6.5) but
# not enforced mechanically; review enforces it.
_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\-]+)")


class FunctionInfo:
    """One function or method definition inside a SourceFile."""

    __slots__ = ("name", "qualname", "node", "class_name")

    def __init__(self, name, qualname, node, class_name):
        self.name = name
        self.qualname = qualname
        self.node = node
        self.class_name = class_name


class SourceFile:
    """A parsed file plus the per-file indexes the rules share."""

    __slots__ = (
        "path", "rel", "text", "lines", "tree", "functions", "classes",
        "imports", "_parents", "_suppressions", "_func_assignments",
    )

    def __init__(self, path, text, rel=None):
        self.path = path
        self.rel = (rel if rel is not None else str(path)).replace("\\", "/")
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=self.rel)
        self.functions = []
        self.classes = []
        self.imports = {}  # local alias -> dotted module or module.attr
        self._parents = None
        self._suppressions = None
        self._func_assignments = {}
        self._index_defs()
        self._index_imports()

    # -- construction-time indexes ------------------------------------------

    def _index_defs(self):
        def visit(node, stack):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    class_name = stack[-1] if stack else None
                    qual = ".".join(stack + [child.name])
                    self.functions.append(
                        FunctionInfo(child.name, qual, child, class_name)
                    )
                    visit(child, stack + [child.name])
                elif isinstance(child, ast.ClassDef):
                    self.classes.append((".".join(stack + [child.name]),
                                         child))
                    visit(child, stack + [child.name])
                else:
                    visit(child, stack)

        visit(self.tree, [])

    def _index_imports(self):
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = f"{node.module}.{alias.name}"

    # -- parents ------------------------------------------------------------

    def parents(self):
        """Map id(node) -> parent node, built lazily once."""
        if self._parents is None:
            parents = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[id(child)] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node):
        """Yield (ancestor, child-on-the-path) pairs, innermost first."""
        parents = self.parents()
        child = node
        parent = parents.get(id(child))
        while parent is not None:
            yield parent, child
            child = parent
            parent = parents.get(id(child))

    def enclosing_function(self, node):
        """Innermost FunctionDef containing *node* (or None)."""
        for ancestor, _ in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    # -- suppressions -------------------------------------------------------

    def suppressions(self):
        """Map 1-based line -> set of suppressed rule ids/names.

        A trailing comment suppresses its own line; a directive inside
        a standalone comment block suppresses the first code line after
        the block (so multi-line justifications work).
        """
        if self._suppressions is None:
            table = {}
            total = len(self.lines)
            for index, line in enumerate(self.lines, start=1):
                match = _SUPPRESS_RE.search(line)
                if not match:
                    continue
                names = {
                    part.strip() for part in match.group(1).split(",")
                    if part.strip()
                }
                table.setdefault(index, set()).update(names)
                if line.lstrip().startswith("#"):
                    target = index + 1
                    while target <= total and (
                        not self.lines[target - 1].strip()
                        or self.lines[target - 1].lstrip().startswith("#")
                    ):
                        target += 1
                    table.setdefault(target, set()).update(names)
            self._suppressions = table
        return self._suppressions

    def suppressed_rules_at(self, line):
        return self.suppressions().get(line, frozenset())

    # -- local symbol resolution --------------------------------------------

    def local_assignments(self, func_node):
        """Name -> list of value expressions assigned in *func_node*.

        Shallow, flow-insensitive: enough to resolve the simulator's
        hook-alias idiom (``probe = self._probe``) and set-typed locals.
        Computed once per function and cached.
        """
        cached = self._func_assignments.get(id(func_node))
        if cached is not None:
            return cached
        table = {}
        for node in ast.walk(func_node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        table.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    table.setdefault(node.target.id, []).append(node.value)
        self._func_assignments[id(func_node)] = table
        return table

    def resolve_call_module(self, func):
        """Dotted origin of a call target, via the import table.

        ``time.monotonic()`` -> ``time.monotonic`` when ``import time``
        is in scope; ``shuffle()`` -> ``random.shuffle`` after ``from
        random import shuffle``; ``datetime.datetime.now()`` flattens
        the whole attribute chain.  Returns None for anything that does
        not resolve to an imported module/function.
        """
        parts = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id)
        if base is None:
            return None
        parts.reverse()
        return ".".join([base] + parts)


def parse_source(path, text, rel=None):
    """Parse *text*; returns (SourceFile, None) or (None, error-string)."""
    try:
        return SourceFile(path, text, rel=rel), None
    except SyntaxError as error:
        return None, f"{rel or path}: {error.msg} (line {error.lineno})"
