"""Engine-perf rule (RL303).

An ``accept_block`` kernel is the engine's innermost hot path: every
Monte-Carlo trial of every sweep flows through one.  A per-trial Python
loop there — ``for index in range(trials): ...`` — costs one interpreter
round-trip per trial and silently caps the parallel backends (the tile
dispatch overhead is amortised against vectorized tile cost, not a
Python loop).  Every production kernel batches its trial axis with
NumPy: one upfront sample matrix, offset bincounts, row-wise statistics.

The rule flags trial-indexed loops (statement loops and comprehensions
alike) inside batch kernels, recognised three ways:

* functions named ``accept_block`` or ``l1_errors_block`` — or ending
  with either, which catches the reference oracles of
  ``tests/oracles.py``; those per-trial transcriptions are the
  sanctioned exception and carry explicit pragmas;
* any ``*_block`` method of a class that implements the
  :class:`~repro.engine.kernels.AcceptKernel` protocol (defines both
  ``accept_block`` and ``cache_token``) — such classes are registered
  with the engine, so every block method on them is hot-path;
* the ``update`` / ``update_block`` / ``finalize`` methods of a
  streaming-tester-shaped class (defines ``init_state``, ``update`` and
  ``finalize``, like :class:`~repro.core.streaming.StreamingTester`).
  ``update`` runs once per sample block of every trial, so besides
  trial-indexed loops the rule also flags loops that iterate the
  incoming sample block itself (the per-*sample* Python loop the
  streaming contract bans).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Union

from ..context import ModuleContext
from ..diagnostics import Diagnostic
from ..registry import Rule, register_rule
from .engine_bypass import _is_trial_range

ComprehensionNode = Union[ast.GeneratorExp, ast.ListComp, ast.SetComp]


#: Names (and name suffixes) that mark a function as a batch kernel
#: wherever it is defined.
KERNEL_BLOCK_NAMES = ("accept_block", "l1_errors_block")

#: Hot methods of a streaming-tester-shaped class: ``update`` folds one
#: sample block into per-trial state, ``finalize`` reads the verdicts.
STREAMING_HOT_METHODS = ("update", "update_block", "finalize")

#: The streaming hot methods that receive a sample block (and therefore
#: must not iterate it sample-by-sample).
STREAMING_BLOCK_METHODS = ("update", "update_block")


def _is_kernel_function(name: str) -> bool:
    """Whether ``name`` is a batch-kernel entry point (or named variant)."""
    return any(name == base or name.endswith(base) for base in KERNEL_BLOCK_NAMES)


def _is_streaming_tester_class(node: ast.ClassDef) -> bool:
    """Whether ``node`` is streaming-tester-shaped.

    A class defining ``init_state``, ``update`` and ``finalize`` has the
    shape of :class:`~repro.core.streaming.StreamingTester`, whose
    ``accept_block`` streams every block through them, so its
    update/finalize methods are hot-path.
    """
    defined = {
        stmt.name
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return {"init_state", "update", "finalize"} <= defined


def _mentions_name(node: ast.expr, names: frozenset) -> bool:
    """Whether an expression references any of ``names``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in names:
            return True
    return False


def _is_accept_kernel_class(node: ast.ClassDef) -> bool:
    """Whether ``node`` implements the AcceptKernel protocol shape.

    The protocol is structural (``typing.Protocol``), so we mirror the
    engine's duck check: a class that defines both ``accept_block`` and
    ``cache_token`` is registrable with ``estimate_acceptance`` and all
    its ``*_block`` methods are hot-path.
    """
    defined = {
        stmt.name
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return "accept_block" in defined and "cache_token" in defined


class _KernelLoopCollector(ast.NodeVisitor):
    """Collect per-trial loops inside batch-kernel functions."""

    def __init__(self) -> None:
        self.offenders: List[ast.AST] = []
        self._kernel_depth = 0
        self._kernel_class_depth = 0
        self._streaming_class_depth = 0
        # Stack of active sample-block parameter-name sets, one frame per
        # enclosing streaming update method (empty set elsewhere).
        self._block_params: List[frozenset] = [frozenset()]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        inside = _is_accept_kernel_class(node)
        streaming = _is_streaming_tester_class(node)
        self._kernel_class_depth += inside
        self._streaming_class_depth += streaming
        self.generic_visit(node)
        self._kernel_class_depth -= inside
        self._streaming_class_depth -= streaming

    def _visit_function(self, node: ast.AST, name: str) -> None:
        streaming_hot = (
            self._streaming_class_depth > 0 and name in STREAMING_HOT_METHODS
        )
        inside = (
            _is_kernel_function(name)
            or (self._kernel_class_depth > 0 and name.endswith("_block"))
            or streaming_hot
        )
        block_names: frozenset = frozenset()
        if streaming_hot and name in STREAMING_BLOCK_METHODS:
            # update(self, state, sample_block, ...): every positional
            # parameter past the state carries sample data.
            args = node.args
            positional = [arg.arg for arg in args.posonlyargs + args.args]
            block_names = frozenset(positional[2:])
        self._kernel_depth += inside
        self._block_params.append(block_names)
        self.generic_visit(node)
        self._block_params.pop()
        self._kernel_depth -= inside

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def _is_hot_loop_iter(self, iter_node: ast.expr) -> bool:
        if _is_trial_range(iter_node):
            return True
        return bool(self._block_params[-1]) and _mentions_name(
            iter_node, self._block_params[-1]
        )

    def visit_For(self, node: ast.For) -> None:
        if self._kernel_depth and self._is_hot_loop_iter(node.iter):
            self.offenders.append(node)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ComprehensionNode) -> None:
        if self._kernel_depth and any(
            self._is_hot_loop_iter(gen.iter) for gen in node.generators
        ):
            self.offenders.append(node)
        self.generic_visit(node)

    visit_GeneratorExp = _visit_comprehension
    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension


@register_rule
class EnginePerf(Rule):
    """accept_block kernels must batch their trial axis."""

    code = "RL303"
    name = "engine-perf"
    summary = "per-trial Python loop inside a batch kernel"
    # A slow-but-correct reference loop is a perf smell, not a
    # correctness break — unlike every other family.
    default_severity = "warning"
    rationale = (
        "accept_block, l1_errors_block, the *_block methods of "
        "AcceptKernel-protocol classes, and the update/finalize methods "
        "of streaming testers are the engine's hot path; a Python loop "
        "over trials (or over the incoming sample block) costs one "
        "interpreter round-trip per element and defeats the parallel "
        "backends' dispatch amortisation.  "
        "Batch the trial axis with NumPy (sample matrices, offset "
        "bincounts, row-wise statistics); per-trial fallbacks for "
        "third-party objects with no batch API need an explicit pragma."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        collector = _KernelLoopCollector()
        collector.visit(ctx.tree)
        for node in collector.offenders:
            yield self.diag(
                ctx,
                node,
                "per-trial/per-sample loop in a batch kernel; vectorize the "
                "trial axis (or pragma a justified third-party fallback)",
            )
