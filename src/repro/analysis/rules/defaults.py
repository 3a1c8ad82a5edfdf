"""R6: mutable default arguments."""

import ast

from repro.analysis.rules.base import Rule

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
