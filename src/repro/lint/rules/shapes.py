"""Kernel dtype rule (RL802).

Cached acceptance curves and cross-backend parity are asserted
bit-for-bit, so a kernel's arrays must not change width from machine to
machine.  ``np.int_``/``np.intp`` and a bare ``int`` dtype are int64 on
64-bit Linux, which is where the tests run, so no runtime test can see
the 32-bit width they take on Windows/ILP32.  This rule is the static
check for that one hazard, plus ``==``/``!=`` against a float literal
(float round-off turned into a decision bit).

The rest of the kernel contract — a ``bool`` ``(trials,)`` return, no
exception, draws within ``elements_per_trial`` — fails loudly when run,
and the table-driven contract test in ``tests/engine/test_rng_budget.py``
runs every kernel to check it.

Scope is the kernel hot path as :mod:`.engine_perf` recognises it —
``accept_block``/``l1_errors_block`` functions, the ``*_block`` methods
of AcceptKernel-shaped classes and the ``update``/``finalize`` methods
of streaming-tester-shaped classes — plus ``cache_token`` on either
kind of class, since its values key the acceptance cache.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple, Union

from ..context import ModuleContext, dotted_name
from ..diagnostics import Diagnostic
from ..registry import Rule, register_rule
from .engine_perf import (
    STREAMING_HOT_METHODS,
    _is_accept_kernel_class,
    _is_kernel_function,
    _is_streaming_tester_class,
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: numpy scalar-type attributes whose width depends on the platform.
PLATFORM_DTYPE_NAMES = frozenset(
    {
        "numpy.int_",
        "numpy.intp",
        "numpy.intc",
        "numpy.uint",
        "numpy.uintp",
        "numpy.uintc",
        "numpy.long",
        "numpy.ulong",
        "numpy.longlong",
        "numpy.ulonglong",
    }
)


def _in_dtype_scope(name: str, kernel_class: bool, streaming_class: bool) -> bool:
    """Whether a function with this name, on this kind of class, is audited."""
    return (
        _is_kernel_function(name)
        or (kernel_class and name.endswith("_block"))
        or (streaming_class and name in STREAMING_HOT_METHODS)
        or ((kernel_class or streaming_class) and name == "cache_token")
    )


def _dtype_scopes(tree: ast.Module) -> Iterator[FunctionNode]:
    """Every audited function of a module."""
    owners: Dict[int, Tuple[bool, bool]] = {}
    # ast.walk is breadth-first: a class is seen before its methods.
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            kinds = (_is_accept_kernel_class(node), _is_streaming_tester_class(node))
            for stmt in node.body:
                owners[id(stmt)] = kinds
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _in_dtype_scope(node.name, *owners.get(id(node), (False, False))):
                yield node


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_builtin_int(ctx: ModuleContext, node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "int" and ctx.resolve("int") == "int"


def _dtype_hazards(ctx: ModuleContext, function: FunctionNode) -> Iterator[Tuple[ast.AST, str]]:
    """``(node, message)`` for every dtype hazard inside ``function``."""
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute):
            canonical = ctx.resolve(dotted_name(node))
            if canonical in PLATFORM_DTYPE_NAMES:
                yield node, (
                    f"platform-dependent dtype {canonical.split('.', 1)[1]} "
                    "in a kernel accept path; spell the width explicitly "
                    "(np.int64) so cached curves stay bit-identical "
                    "across machines"
                )
        elif isinstance(node, ast.Call):
            targets = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                targets.extend(node.args[:1])
            for target in targets:
                if _is_builtin_int(ctx, target):
                    yield target, (
                        "value written with platform-dependent dtype int "
                        "in a kernel accept path; use np.int64 so cached "
                        "curves stay bit-identical across machines"
                    )
        elif isinstance(node, ast.Compare):
            equality = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            operands = [node.left, *node.comparators]
            if equality and any(_is_float_literal(operand) for operand in operands):
                yield node, (
                    "equality test against a float literal in a kernel "
                    "accept path; float round-off is not a stable bit — "
                    "compare integer counts or use an explicit tolerance"
                )


@register_rule
class PlatformDependentDtype(Rule):
    """Platform-/value-dependent dtype in the accept path or cache key."""

    code = "RL802"
    name = "platform-dependent-dtype"
    summary = "platform-dependent dtype or float equality in a kernel path"
    rationale = (
        "Cached acceptance curves and cross-backend parity are asserted "
        "bit-for-bit.  np.int_/np.intp and bare astype(int) change width "
        "between platforms (32-bit on Windows/ILP32), and == against a "
        "float turns round-off into a decision bit; either way the same "
        "seed yields different accept vectors on different machines.  "
        "Spell widths explicitly (np.int64) and compare integer counts."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for function in _dtype_scopes(ctx.tree):
            for node, message in _dtype_hazards(ctx, function):
                yield self.diag(ctx, node, message)
