"""Engine-bypass rule (RL302).

All Monte-Carlo acceptance estimation is supposed to flow through the
kernel substrate's single entry point
(:func:`repro.engine.estimate_acceptance`): that is where chunked
streaming, the on-disk cache, per-kernel metrics and block-granular
sequential stopping live.  A hand-rolled trial loop — ``for _ in
range(trials): hits += tester.test(...)`` — silently forfeits all four
and, worse, produces rates that are *not* bit-reproducible across
backends because it consumes one sequential generator.

The rule flags trial-indexed loops (statement loops and comprehensions
alike) whose body invokes a per-execution decision method (``.test`` /
``.run``).  Kernel implementations themselves (functions named
``accept_block``) and everything under ``repro/engine`` are exempt; the
reference oracles used for differential testing carry an explicit
pragma (see ``tests/oracles.py``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Union

from ..context import ModuleContext, dotted_name
from ..diagnostics import Diagnostic
from ..registry import Rule, register_rule

#: Per-execution decision methods whose presence marks a loop body as
#: acceptance estimation (rather than, say, arithmetic post-processing).
DECISION_METHODS = frozenset({"test", "run"})

#: Functions allowed to loop over trials: the kernel contract itself.
EXEMPT_FUNCTIONS = frozenset({"accept_block"})

ComprehensionNode = Union[ast.GeneratorExp, ast.ListComp, ast.SetComp]


def _mentions_trials(node: ast.expr) -> bool:
    """Whether an expression references a name containing "trial"."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "trial" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "trial" in sub.attr.lower():
            return True
    return False


def _is_trial_range(node: ast.expr) -> bool:
    """Whether ``node`` is a ``range(...)`` call over a trial count."""
    if not isinstance(node, ast.Call):
        return False
    if dotted_name(node.func) != "range":
        return False
    return any(_mentions_trials(arg) for arg in node.args)


def _calls_decision_method(*nodes: ast.AST) -> bool:
    """Whether any subtree calls an attribute in :data:`DECISION_METHODS`."""
    for root in nodes:
        for sub in ast.walk(root):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in DECISION_METHODS
            ):
                return True
    return False


class _LoopCollector(ast.NodeVisitor):
    """Collect offending loops, tracking the enclosing-function stack."""

    def __init__(self) -> None:
        self.offenders: List[ast.AST] = []
        self._exempt_depth = 0

    def _visit_function(self, node: ast.AST, name: str) -> None:
        exempt = name in EXEMPT_FUNCTIONS
        self._exempt_depth += exempt
        self.generic_visit(node)
        self._exempt_depth -= exempt

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_For(self, node: ast.For) -> None:
        if (
            not self._exempt_depth
            and _is_trial_range(node.iter)
            and _calls_decision_method(*node.body)
        ):
            self.offenders.append(node)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ComprehensionNode) -> None:
        if not self._exempt_depth and any(
            _is_trial_range(gen.iter) for gen in node.generators
        ):
            if _calls_decision_method(node.elt):
                self.offenders.append(node)
        self.generic_visit(node)

    visit_GeneratorExp = _visit_comprehension
    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension


@register_rule
class EngineBypass(Rule):
    """Acceptance estimation must go through ``repro.engine``."""

    code = "RL302"
    name = "engine-bypass"
    summary = "hand-rolled Monte-Carlo accept-estimation loop outside repro.engine"
    rationale = (
        "Trial loops that call .test()/.run() per execution bypass the "
        "engine's chunked streaming, acceptance cache, metrics and "
        "block-granular sequential stopping, and their sequential "
        "generator makes results depend on execution order.  Route the "
        "estimate through repro.engine.estimate_acceptance (or implement "
        "accept_block and let the engine drive it)."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if ctx.in_package("repro/engine"):
            return
        collector = _LoopCollector()
        collector.visit(ctx.tree)
        for node in collector.offenders:
            yield self.diag(
                ctx,
                node,
                "trial loop estimates acceptance outside the engine; use "
                "repro.engine.estimate_acceptance (or an accept_block kernel)",
            )
