"""Call-graph hot-path classifier seeded from the engine's step loop.

The engine's per-cycle work is ``Engine._step``: tick every runnable
component (``component.tick(self)``), then commit dirty channels.  Any
function reachable from ``_step`` or ``wake`` therefore runs O(cycles)
times and must obey the hot-path contracts (bulk channel APIs, no
wall-clock, is-None-gated hooks).

Python's dynamic dispatch makes an exact call graph impossible from
the AST alone, so the classifier over-approximates deliberately:

* attribute calls resolve *by method name* -- ``component.tick(self)``
  marks every ``tick`` method hot, which is precisely the dynamic
  dispatch the engine performs;
* resolution is restricted to the simulator-core packages
  (:data:`HOT_PACKAGES`); experiments, graph preprocessing, baselines
  and reporting can never be classified hot, because they run O(1)
  times per sweep point no matter who names a colliding method.

Over-approximation errs toward *more* rule coverage; a cold function
misclassified hot costs at worst one justified suppression.
"""

import ast
from collections import deque

# Entry points of the per-cycle loop, looked up in the engine module.
SEED_METHODS = ("_step", "wake", "wake_at")
SEED_MODULE_SUFFIX = "sim/engine.py"

# Only definitions in these packages participate in (and can be
# reached by) hot-path resolution.
HOT_PACKAGES = (
    "repro/sim/",
    "repro/core/",
    "repro/mem/",
    "repro/accel/",
    "repro/fabric/",
)


def _in_hot_package(rel):
    return any(marker in rel for marker in HOT_PACKAGES)


def _called_names(func_node):
    """Bare names this function may call (Name and Attribute targets)."""
    names = set()
    for node in ast.walk(func_node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            names.add(func.id)
        elif isinstance(func, ast.Attribute):
            names.add(func.attr)
    return names


class HotPathIndex:
    """Reachability over the name-resolved call graph.

    ``force_hot=True`` builds a degenerate index that classifies every
    function hot -- used by fixture tests and rule self-checks, whose
    snippets have no engine to be reachable from.
    """

    def __init__(self, sources, force_hot=False):
        self.force_hot = force_hot
        self._hot_ids = set()  # id(FunctionDef node) for hot defs
        self._hot_names = {}  # source.rel -> sorted list of hot qualnames
        if not force_hot:
            self._build(sources)

    def _build(self, sources):
        by_name = {}  # bare name -> [(rel, FunctionInfo)]
        seeds = []
        for source in sources:
            if not _in_hot_package(source.rel):
                continue
            for info in source.functions:
                by_name.setdefault(info.name, []).append((source.rel, info))
                if (info.name in SEED_METHODS
                        and source.rel.endswith(SEED_MODULE_SUFFIX)):
                    seeds.append((source.rel, info))

        queue = deque(seeds)
        hot_keys = set()
        while queue:
            rel, info = queue.popleft()
            key = (rel, info.qualname)
            if key in hot_keys:
                continue
            hot_keys.add(key)
            self._hot_ids.add(id(info.node))
            self._hot_names.setdefault(rel, []).append(info.qualname)
            for called in _called_names(info.node):
                for target in by_name.get(called, ()):
                    if (target[0], target[1].qualname) not in hot_keys:
                        queue.append(target)
        for rel in self._hot_names:
            self._hot_names[rel].sort()

    # -- queries ------------------------------------------------------------

    def is_hot(self, func_node):
        return self.force_hot or id(func_node) in self._hot_ids

    def hot_functions(self, source):
        """FunctionInfo entries of *source* classified hot, in file order."""
        return [info for info in source.functions
                if self.force_hot or id(info.node) in self._hot_ids]

    def hot_qualnames(self, rel):
        """Sorted hot function qualnames for a file (diagnostics)."""
        return tuple(self._hot_names.get(rel, ()))

    def hot_files(self):
        """Sorted rel paths containing at least one hot function."""
        return tuple(sorted(self._hot_names))
