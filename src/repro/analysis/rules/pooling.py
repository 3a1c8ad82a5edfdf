"""R3/R7: token pooling discipline and __slots__ on token classes.

Pooled token classes are discovered from the tree itself: any class
passed to (or decorated with) ``repro.core.messages.register_pool``
participates, so a new pooled token type is covered by both rules the
moment it registers -- no linter change needed.
"""

import ast

from repro.analysis.rules.base import Rule

# Function-name prefixes allowed to construct pooled classes directly:
# the acquire helpers whose whole job is the pool-miss fallback path.
ACQUIRE_PREFIXES = ("_new_", "_acquire_", "acquire_")
# Module that owns the pool machinery (constructors there are the API).
POOL_HOME_SUFFIX = "core/messages.py"

# Class-name shape that marks a token/message type for R7 even when it
# is not freelist-pooled.
_TOKEN_NAME_SUFFIXES = (
    "Request", "Response", "Token", "Beat", "Message", "Job",
)


class DirectTokenConstructionRule(Rule):
    """R3: hot paths must acquire pooled tokens, not construct them."""

    id = "R3"
    name = "direct-token-construction"
    severity = "error"
    summary = "no direct pooled-token constructor calls on hot paths"
    rationale = (
        "Steady-state allocation-free operation (token freelists, DESIGN.md "
        "6.4) holds only while every hot-path token comes from a "
        "freelist acquire; one direct constructor call re-introduces "
        "per-cycle allocation and garbage pressure, and the pool "
        "counters ('fresh' never converging) are a far later, far "
        "vaguer symptom than a named file:line."
    )
    hint = ("go through the acquire helper (e.g. _acquire_response / "
            "channel fields API) so the freelist is consulted first")

    POSITIVE = (
        "from repro.core.messages import register_pool\n"
        "class MomsRequest:\n"
        "    pass\n"
        "register_pool(MomsRequest)\n"
        "def tick(self, engine):\n"
        "    req = MomsRequest(addr, 4, None, 0)\n"
    )
    NEGATIVE = (
        "from repro.core.messages import register_pool\n"
        "class MomsRequest:\n"
        "    pass\n"
        "register_pool(MomsRequest)\n"
        "def _new_request(addr):\n"
        "    MomsRequest._fresh += 1\n"
        "    return MomsRequest(addr, 4, None, 0)\n"
        "def tick(self, engine):\n"
        "    req = _new_request(addr)\n"
    )

    def check(self, source, ctx):
        pooled = ctx.pooled_classes
        if not pooled or source.rel.endswith(POOL_HOME_SUFFIX):
            return
        for info in ctx.hot.hot_functions(source):
            if info.name.startswith(ACQUIRE_PREFIXES):
                continue
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                if source.enclosing_function(node) is not info.node:
                    continue  # nested def: reported under its own name
                func = node.func
                if isinstance(func, ast.Name):
                    called = func.id
                elif isinstance(func, ast.Attribute):
                    called = func.attr
                else:
                    continue
                if called in pooled:
                    yield self.finding(
                        source, node,
                        f"hot function '{info.qualname}' constructs pooled "
                        f"token '{called}' directly instead of acquiring "
                        f"from its freelist",
                    )


def _has_slots(class_node):
    """dataclass(slots=True) decorator or a __slots__ class attribute."""
    for decorator in class_node.decorator_list:
        if isinstance(decorator, ast.Call):
            target = decorator.func
            name = target.attr if isinstance(target, ast.Attribute) \
                else getattr(target, "id", None)
            if name == "dataclass":
                for keyword in decorator.keywords:
                    if keyword.arg == "slots" \
                            and isinstance(keyword.value, ast.Constant) \
                            and keyword.value.value is True:
                        return True
    for statement in class_node.body:
        targets = ()
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = (statement.target,)
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


class MissingSlotsRule(Rule):
    """R7: token/message classes must declare __slots__."""

    id = "R7"
    name = "missing-slots"
    severity = "error"
    summary = "token/message classes must use __slots__"
    rationale = (
        "Millions of tokens circulate per run; a per-instance __dict__ "
        "multiplies their footprint and slows every field access on the "
        "hot path.  Freelist pooling also relies on fixed field sets -- "
        "a dict-bearing token can accumulate stale attributes across "
        "recycles, which is exactly the kind of state leak the "
        "bit-identical replays cannot tolerate."
    )
    hint = "declare __slots__ or use @dataclass(slots=True)"

    POSITIVE = (
        "class SpillToken:\n"
        "    def __init__(self, addr):\n"
        "        self.addr = addr\n"
    )
    NEGATIVE = (
        "class SpillToken:\n"
        "    __slots__ = ('addr',)\n"
        "    def __init__(self, addr):\n"
        "        self.addr = addr\n"
    )

    def check(self, source, ctx):
        if not ctx.in_hot_package(source):
            return
        for qualname, class_node in source.classes:
            tokenish = (
                class_node.name in ctx.pooled_classes
                or class_node.name.endswith(_TOKEN_NAME_SUFFIXES)
            )
            if not tokenish:
                continue
            # Exception types named *Error/*Exception never match the
            # suffixes above; bases are not inspected on purpose (a
            # token subclassing a slotted base still needs its own).
            if not _has_slots(class_node):
                yield self.finding(
                    source, class_node,
                    f"token class '{qualname}' has no __slots__",
                )


def discover_pooled_classes(sources):
    """Class names registered with register_pool anywhere in the tree."""
    pooled = set()
    for source in sources:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "register_pool":
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        pooled.add(arg.id)
            elif isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    if isinstance(decorator, ast.Name) \
                            and decorator.id == "register_pool":
                        pooled.add(node.name)
    return frozenset(pooled)
