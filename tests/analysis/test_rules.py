"""The simulator's coding contracts, checked over ``src/repro``.

Every ``.py`` under ``src/repro`` is parsed once (DESIGN.md 6.5).  In
the hot packages: R1, no wall-clock, process entropy, module-level
``random.*`` or set iteration; R2, no per-token ``push``/``front``/
``pop()`` loop on one channel (``fabric/`` exempt); R5, no ``==``/``!=``
against a float literal or a true-division result.  Everywhere: R6, no
mutable default argument; R7, no per-instance ``__dict__`` on a token
class, checked by importing every module.

Each check has a fixture that must fire and one that must pass, and the
per-rule classes pin the sharper distinctions each check draws.  A
justified finding goes into ``ALLOWLIST``; a stale entry fails.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
HOT_PACKAGES = ("sim", "core", "mem", "accel", "fabric")

#: (path, function qualname, rule) -> why the finding is not a defect.
ALLOWLIST = {
    ("repro/accel/algorithms.py", "pagerank_spec.apply_enc_vec", "R5"):
        "not cycle math: the sink test compares V_const lanes that hold "
        "exact integer out-degrees, mirroring apply()'s `const_c == 0`.",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scopes(node, prefix=""):
    """(qualname, node) for the module and every function, nested too."""
    if isinstance(node, ast.Module):
        yield "<module>", node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS + (ast.ClassDef,)):
            if isinstance(child, _DEFS):
                yield prefix + child.name, child
            yield from _scopes(child, prefix + child.name + ".")
        else:
            yield from _scopes(child, prefix)


def _own_nodes(scope):
    """Every node of *scope*, not descending into nested defs."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _DEFS):
            stack.extend(ast.iter_child_nodes(node))


def _imports(tree):
    """Local name -> dotted origin, e.g. ``shuffle`` -> ``random.shuffle``."""
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                table[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return table


def _dotted(func, imports):
    """Dotted origin of a call target, or None if it is not an import."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in imports:
        return None
    return ".".join([imports[func.id]] + parts[::-1])


_FORBIDDEN = ("time.", "datetime.", "secrets.", "random.", "os.urandom",
              "os.getrandom", "uuid.uuid1", "uuid.uuid4")


def _makes_set(node):
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset"))


def check_r1(scope, imports):
    """Wall-clock, entropy, module-level RNG and set iteration."""
    nodes = list(_own_nodes(scope))
    set_names = {target.id for node in nodes if isinstance(node, ast.Assign)
                 and _makes_set(node.value) for target in node.targets
                 if isinstance(target, ast.Name)}
    for node in nodes:
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func, imports)
            if dotted is None or (dotted == "random.Random" and node.args):
                continue  # a seeded generator is the sanctioned idiom
            if dotted.startswith(_FORBIDDEN):
                yield node, f"calls '{dotted}'"
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            it = node.iter
            if _makes_set(it) or (isinstance(it, ast.Name)
                                  and it.id in set_names):
                yield it, "iterates a set (hash-randomized order)"


#: Receivers that are not channels: LIFO lists and heaps.
_NOT_CHANNELS = ("pending", "path", "stack", "heap")


def check_r2(scope, imports):
    """Single-token push/front/pop() calls on one channel inside a loop."""
    calls = {id(node): node for loop in _own_nodes(scope)
             if isinstance(loop, (ast.For, ast.While))
             for node in ast.walk(loop) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)}
    for node in calls.values():
        method, receiver = node.func.attr, node.func.value
        if not (method in ("push", "front") or (
                method == "pop" and not node.args and not node.keywords)):
            continue
        # ports[channel].push(...): the target varies per iteration.
        name = getattr(receiver, "attr", getattr(receiver, "id", None))
        if name is not None and not any(mark in name
                                        for mark in _NOT_CHANNELS):
            yield node, f"'{name}.{method}(...)' inside a loop"


def check_r5(scope, imports):
    """Exact equality against a float literal or a true division."""
    for node in _own_nodes(scope):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) \
                and any(isinstance(expr, ast.Constant)
                        and isinstance(expr.value, float)
                        or isinstance(expr, ast.BinOp)
                        and isinstance(expr.op, ast.Div)
                        for expr in [node.left, *node.comparators]):
            yield node, "==/!= on float arithmetic"


_MUTABLE_CALLS = ("list", "dict", "set", "bytearray", "deque",
                  "defaultdict", "Counter", "OrderedDict")


def check_r6(scope, imports):
    """Mutable default arguments."""
    if isinstance(scope, ast.Module):
        return
    for default in scope.args.defaults + scope.args.kw_defaults:
        if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                ast.DictComp, ast.SetComp)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS):
            yield default, "mutable default argument"


CHECKS = {"R1": check_r1, "R2": check_r2, "R5": check_r5, "R6": check_r6}


def findings(rule, path, tree):
    """(path, qualname, rule, line, message) for one parsed file."""
    package = path.split("/")[1]
    if rule != "R6" and (package not in HOT_PACKAGES
                         or (rule, package) == ("R2", "fabric")):
        return []
    imports = _imports(tree)
    return [(path, qualname, rule, node.lineno, message)
            for qualname, scope in _scopes(tree)
            for node, message in CHECKS[rule](scope, imports)]


TREES = {path.relative_to(SRC.parent).as_posix():
         ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.rglob("*.py"))}


def tree_findings(rule):
    return [found for path, tree in TREES.items()
            for found in findings(rule, path, tree)]


# -- R7: run on the imported classes, so an unslotted base counts too ------

TOKEN_SUFFIXES = ("Request", "Response", "Token", "Beat", "Message", "Job")


def token_classes(namespace):
    return {name: obj for name, obj in namespace.items()
            if isinstance(obj, type) and name.endswith(TOKEN_SUFFIXES)}


def check_r7(namespace):
    """Token classes whose instances get a per-instance ``__dict__``."""
    # __dictoffset__ is non-zero exactly when instances get a __dict__.
    return sorted(name for name, cls in token_classes(namespace).items()
                  if cls.__dictoffset__)


def _fixture_findings(rule, text, path="repro/core/fixture.py"):
    if rule == "R7":
        namespace = {"__name__": "fixture"}
        exec(text, namespace)
        return check_r7(namespace)
    return findings(rule, path, ast.parse(text))


def _fires(rule, text, path="repro/core/fixture.py"):
    return bool(_fixture_findings(rule, text, path))


#: rule -> (POSITIVE fixture, must fire; NEGATIVE fixture, must pass).
FIXTURES = {
    "R1": ("import time\ndef tick(self, engine):\n"
           "    self.started = time.monotonic()\n",
           "def tick(self, engine):\n    self.started = engine.now\n"
           "    for key in sorted(self.waiting):\n        self.serve(key)\n"),
    "R2": ("def tick(self, engine):\n    for item in batch:\n"
           "        self.resp_out.push(item)\n",
           "def tick(self, engine):\n    self.resp_out.push_many(batch)\n"
           "    for port, item in pieces:\n        ports[port].push(item)\n"),
    "R5": ("def occupancy_ratio(used, total):\n"
           "    if used / total == 0.5:\n        return 'half'\n",
           "def occupancy_ratio(used, total):\n"
           "    if used * 2 == total:\n        return 'half'\n"),
    "R6": ("def enqueue(self, items=[]):\n    return items\n",
           "def enqueue(self, items=None):\n"
           "    return items if items is not None else []\n"),
    "R7": ("class SpillToken:\n    def __init__(self, addr):\n"
           "        self.addr = addr\n",
           "class SpillToken:\n    __slots__ = ('addr',)\n"
           "    def __init__(self, addr):\n        self.addr = addr\n"),
}
RULES = sorted(FIXTURES)


class TestEveryRuleFixture:
    @pytest.mark.parametrize("rule", RULES)
    def test_positive_fires(self, rule):
        assert _fixture_findings(rule, FIXTURES[rule][0])

    @pytest.mark.parametrize("rule", RULES)
    def test_negative_clean(self, rule):
        assert _fixture_findings(rule, FIXTURES[rule][1]) == []


class TestNondeterminismR1:
    def test_seeded_random_instance_allowed(self):
        assert not _fires("R1", "import random\ndef f():\n"
                                "    return random.Random(1234)\n")

    def test_unseeded_random_instance_flagged(self):
        assert _fires("R1", "import random\ndef f():\n"
                            "    return random.Random()\n")
        assert _fires("R1", "import random\ndef f():\n    random.shuffle(q)\n")

    def test_from_import_resolves(self):
        assert _fires("R1", "from random import shuffle\ndef f():\n"
                            "    shuffle(q)\n")

    def test_datetime_now_flagged(self):
        assert _fires("R1", "import datetime\ndef f():\n"
                            "    return datetime.datetime.now()\n")
        assert _fires("R1", "import os\ndef f():\n    return os.urandom(4)\n")

    def test_set_iteration_flagged_sorted_allowed(self):
        bad = "def f():\n    waiting = set(ids)\n    for i in waiting:\n" \
              "        serve(i)\n"
        assert _fires("R1", bad)
        sorted_loop = bad.replace("in waiting", "in sorted(waiting)")
        assert not _fires("R1", sorted_loop)
        assert _fires("R1", "def f():\n    return [i for i in {1, 2}]\n")
        # Dicts iterate in insertion order: a view loop is deterministic.
        assert not _fires("R1", "def f():\n    for k, v in self.d.items():\n"
                                "        g(k, v)\n")


class TestChannelDisciplineR2:
    def test_varying_receivers_allowed(self):
        assert not _fires("R2", "def f():\n    for channel, item in pieces:\n"
                                "        ports[channel].push(item)\n")

    def test_indexed_pop_allowed(self):
        assert not _fires("R2", "def f():\n    while self.backlog:\n"
                                "        job = self.backlog.pop(0)\n")
        assert not _fires("R2", "def f():\n    while self.pending:\n"
                                "        self.pending.pop()\n")
        assert _fires("R2", "def f():\n    while self.queue:\n"
                            "        self.queue.pop()\n")

    def test_fabric_modules_exempt(self):
        loop = FIXTURES["R2"][0]
        assert _fires("R2", loop, "repro/core/x.py")
        assert not _fires("R2", loop, "repro/fabric/x.py")


class TestFloatCompareR5:
    def test_division_equality_flagged(self):
        assert _fires("R5", "def f(used, total):\n"
                            "    return used / total == 1\n")

    def test_integer_compare_clean(self):
        assert not _fires("R5", "def f(used, total):\n    return used * 2 "
                                "== total and used // 2 != total\n")


class TestMutableDefaultR6:
    def test_kwonly_defaults_covered(self):
        assert _fires("R6", "def f(*, seen=set()):\n    return seen\n")

    def test_call_defaults_covered(self):
        assert _fires("R6", "def f(seen=dict()):\n    return seen\n")
        assert not _fires("R6", "def f(seen=()):\n    return seen\n")


class TestSlotsR7:
    def test_dataclass_slots_accepted(self):
        assert not _fires("R7", "from dataclasses import dataclass\n"
                                "@dataclass(slots=True)\nclass SpillToken:\n"
                                "    addr: int\n")

    def test_non_token_class_ignored(self):
        assert not _fires("R7", "class BankParams:\n    def __init__(self):\n"
                                "        self.ways = 4\n")


def test_package_scope():
    """R1, R2 and R5 check the hot packages only; R6 checks every one."""
    text = "import time\ndef report():\n    return time.monotonic()\n"
    assert _fires("R1", text)
    assert not _fires("R1", text, "repro/experiments/x.py")
    assert _fires("R6", FIXTURES["R6"][0], "repro/report.py")


@pytest.mark.parametrize("rule", sorted(CHECKS))
def test_tree_is_clean(rule):
    unexplained = [found for found in tree_findings(rule)
                   if found[:3] not in ALLOWLIST]
    assert unexplained == []


def test_allowlist_entries_still_match():
    found = {hit[:3] for rule in CHECKS for hit in tree_findings(rule)}
    assert set(ALLOWLIST) <= found


def test_token_classes_are_slotted():
    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        classes.update({f"{info.name}.{name}": cls for name, cls
                        in token_classes(vars(module)).items()
                        if cls.__module__ == info.name})
    assert {"Job", "MemRequest", "MemResponse", "MomsRequest",
            "MomsResponse"} <= {cls.__name__ for cls in classes.values()}
    assert check_r7(classes) == []
