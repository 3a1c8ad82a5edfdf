"""R2: bulk/fields channel API discipline on hot paths.

Migrated from the standalone ``tests/test_hot_path_lint.py`` walker
(PR 4) into the rule framework: the kernelization pass moved every
hot-path producer/consumer from element-at-a-time ``Channel.push`` /
``pop`` loops to the bulk (``push_many`` / ``pop_many`` / ``pop_all``)
and fields (``push_request`` / ``front_request`` / ``pop_line`` ...)
APIs, and this rule keeps them there.

Deliberately out of scope (inherited from the original test):

* ``repro/fabric/`` -- arbiters/crossbars grant exactly one token per
  cycle by construction (the paper's arbitration), so a per-token call
  there is the architecture, not a missed batch;
* subscripted receivers like ``ports[channel].push(...)`` -- the
  target channel varies per iteration, which no bulk call on a single
  channel can express;
* stack-style receivers (``pending.pop()`` and friends) -- LIFO list
  pops, not channels.
"""

import ast

from repro.analysis.rules.base import Rule

# Object-API methods that move one token per call.
SINGLE_TOKEN = ("push", "front")
# Receiver base names that are not channels.
ALLOWED_RECEIVERS = ("pending", "path", "stack", "heap")


def _receiver_name(node):
    """Base identifier of a call receiver, or None if it varies."""
    if isinstance(node, ast.Subscript):
        return None  # ports[channel].push(...): target varies
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class SingleTokenChannelRule(Rule):
    """R2: no single-token channel calls inside hot-path loops."""

    id = "R2"
    name = "single-token-channel"
    severity = "error"
    summary = "no per-token push/front/pop loops on hot channels"
    rationale = (
        "The batched kernels (DESIGN.md 6.4) get their speed from one "
        "capacity check and one dirty registration per burst; a loop "
        "re-introducing per-token object calls quietly re-serializes "
        "the hot path and shows up only as a slow benchmark.  Catching "
        "it statically names the file:line instead."
    )
    hint = ("use push_many/pop_many/pop_all or the fields API "
            "(push_request/front_request/pop_line ...) on hot channels")

    POSITIVE = (
        "def tick(self, engine):\n"
        "    for item in batch:\n"
        "        self.resp_out.push(item)\n"
    )
    NEGATIVE = (
        "def tick(self, engine):\n"
        "    self.resp_out.push_many(batch)\n"
        "    for channel, item in pieces:\n"
        "        ports[channel].push(item)\n"
    )

    def check(self, source, ctx):
        if "repro/fabric/" in source.rel:
            return
        seen = set()
        for info in ctx.hot.hot_functions(source):
            for loop in ast.walk(info.node):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                for node in ast.walk(loop):
                    if not isinstance(node, ast.Call) or id(node) in seen:
                        continue
                    func = node.func
                    if not isinstance(func, ast.Attribute):
                        continue
                    single = func.attr in SINGLE_TOKEN or (
                        func.attr == "pop"
                        and not node.args and not node.keywords
                    )
                    if not single:
                        continue
                    receiver = _receiver_name(func.value)
                    if receiver is None:
                        continue
                    if any(mark in receiver for mark in ALLOWED_RECEIVERS):
                        continue
                    seen.add(id(node))
                    yield self.finding(
                        source, node,
                        f"'{receiver}.{func.attr}(...)' inside a loop in "
                        f"hot function '{info.qualname}'",
                    )
