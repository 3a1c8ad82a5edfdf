"""R7: __slots__ on token classes.

Token classes are recognized by name shape (``*Request``,
``*Response``, ``*Beat`` ...), so a new token type is covered the
moment it is declared -- no linter change needed.
"""

import ast

from repro.analysis.rules.base import Rule

# Class-name shape that marks a token/message type.
_TOKEN_NAME_SUFFIXES = (
    "Request", "Response", "Token", "Beat", "Message", "Job",
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
        "Millions of tokens are built per run; a per-instance __dict__ "
        "multiplies their footprint, slows every construction and "
        "field access on the hot path, and lets a typo'd attribute "
        "write succeed silently instead of raising."
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
            if not class_node.name.endswith(_TOKEN_NAME_SUFFIXES):
                continue
            # Exception types named *Error/*Exception never match the
            # suffixes above; bases are not inspected on purpose (a
            # token subclassing a slotted base still needs its own).
            if not _has_slots(class_node):
                yield self.finding(
                    source, class_node,
                    f"token class '{qualname}' has no __slots__",
                )

