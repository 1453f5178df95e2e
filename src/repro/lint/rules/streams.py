"""Unordered-iteration rule (RL603).

A ``set``'s iteration order follows string hashing (salted per process)
and a directory listing follows the filesystem, so a loop, fold or
report join driven by either can differ between two runs of the same
seed.  The rule is syntactic: it flags iteration *directly* over an
unordered source, the shape every real instance in this repository had
(``for q in set(counts)``, ``for name in os.listdir(root)``).  An
unordered value bound to a name and iterated later is out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..context import ModuleContext
from ..diagnostics import Diagnostic
from ..registry import Rule, register_rule

#: Calls whose result enumerates in an unspecified order.
UNORDERED_CALLS = frozenset(
    {"set", "frozenset", "os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: ``Path`` methods that enumerate a directory in filesystem order.
UNORDERED_PATH_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Order-insensitive consumers: a comprehension passed straight to one
#: of these is never observed in iteration order.
ORDER_INSENSITIVE = frozenset(
    {"sorted", "set", "frozenset", "min", "max", "any", "all", "len"}
)

#: Order-sensitive folds → position of their iterable argument.
FOLD_ITERABLE_ARG = {"sum": 0, "numpy.concatenate": 0, "functools.reduce": 1}

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _unordered_source(ctx: ModuleContext, node: ast.expr) -> Optional[str]:
    """How ``node`` builds an unordered iterable, or ``None``."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if not isinstance(node, ast.Call):
        return None
    name = ctx.call_name(node)
    if name in UNORDERED_CALLS:
        return f"{name}(...)"
    if isinstance(node.func, ast.Attribute) and node.func.attr in UNORDERED_PATH_METHODS:
        return f"Path.{node.func.attr}(...)"
    return None


def _fold_iterable(ctx: ModuleContext, call: ast.Call) -> Optional[ast.expr]:
    """The iterable argument of an order-sensitive fold call, if any."""
    name = ctx.call_name(call)
    if name in FOLD_ITERABLE_ARG:
        index = FOLD_ITERABLE_ARG[name]
    elif isinstance(call.func, ast.Attribute) and call.func.attr == "join":
        index = 0  # separator.join(iterable)
    else:
        return None
    return call.args[index] if len(call.args) > index else None


@register_rule
class UnorderedIteration(Rule):
    """Iteration directly over a set or a directory listing."""

    code = "RL603"
    name = "unordered-iteration"
    summary = "loop, comprehension or fold iterates an unordered source"
    rationale = (
        "set/frozenset iteration follows per-process string hashing and "
        "os.listdir/scandir/glob/Path.iterdir follow the filesystem, so "
        "a loop that consumes RNG draws, a float sum or a report join "
        "over them differs between runs of one seed.  Wrap the source in "
        "sorted(...) first."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        sanitised: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and ctx.call_name(node) in ORDER_INSENSITIVE
                and node.args
                and isinstance(node.args[0], _COMPREHENSIONS)
            ):
                sanitised.add(id(node.args[0]))
        for node in ast.walk(ctx.tree):
            iterables: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, _COMPREHENSIONS):
                # A set comprehension's own order is never observed.
                if id(node) not in sanitised and not isinstance(node, ast.SetComp):
                    iterables.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                iterable = _fold_iterable(ctx, node)
                if iterable is not None:
                    iterables.append(iterable)
            for iterable in iterables:
                source = _unordered_source(ctx, iterable)
                if source is not None:
                    yield self.diag(
                        ctx,
                        iterable,
                        f"iteration over {source} follows an unspecified "
                        "order; wrap it in sorted(...)",
                    )
