"""RNG-discipline rules (RL10x).

The engine's bit-identical determinism contract (``docs/performance.md``)
requires every random draw to descend from an explicitly threaded
``numpy.random.SeedSequence``/``Generator``.  These rules ban the escape
hatches: entropy-seeded generators, the legacy global numpy RNG, the
stdlib ``random`` module, hard-coded seeds buried inside library
functions, and ``__import__`` calls that hide any of the above from
static analysis.

``repro/rng.py`` is the designated coercion module — it is the one place
allowed to construct generators on the caller's behalf — and is exempt
from RL101/RL104.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..context import DoctestBlock, ModuleContext
from ..diagnostics import Diagnostic
from ..registry import Rule, register_rule

#: The one module allowed to build generators from raw seed material.
RNG_COERCION_MODULE = "repro/rng.py"

#: Canonical names of generator constructors covered by RL101/RL104.
GENERATOR_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "repro.rng.ensure_rng",
    }
)

#: Legacy global-state numpy RNG entry points (RL102).
LEGACY_NUMPY_RNG = frozenset(
    {
        "numpy.random.seed",
        "numpy.random.RandomState",
        "numpy.random.random",
        "numpy.random.random_sample",
        "numpy.random.sample",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.uniform",
        "numpy.random.normal",
        "numpy.random.standard_normal",
        "numpy.random.binomial",
        "numpy.random.poisson",
    }
)


def _iter_code_trees(
    ctx: ModuleContext, include_doctests: bool
) -> Iterator[Tuple[ast.AST, int, ModuleContext, Optional[DoctestBlock]]]:
    """The module tree plus (optionally) every doctest block."""
    yield ctx.tree, 0, ctx, None
    if include_doctests:
        for block in ctx.doctest_blocks():
            yield block.tree, block.line_offset, ctx, block


def _resolve_call(
    ctx: ModuleContext, block: Optional[DoctestBlock], call: ast.Call
) -> Optional[str]:
    if block is not None:
        from ..context import dotted_name

        return block.resolve(dotted_name(call.func))
    return ctx.call_name(call)


def _seed_argument(call: ast.Call) -> Optional[ast.expr]:
    """The seed expression passed to a generator constructor, if any."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "seed":
            return keyword.value
    return None


@register_rule
class SeedlessDefaultRng(Rule):
    """Ban ``np.random.default_rng()`` with no (or a ``None``) seed."""

    code = "RL101"
    name = "seedless-default-rng"
    summary = "np.random.default_rng() called without seed material"
    rationale = (
        "default_rng() or ensure_rng() with no seed, or an explicit None, "
        "draws OS entropy, so the result can never be reproduced, cached, "
        "or compared across backends."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if ctx.is_module(RNG_COERCION_MODULE):
            return
        for tree, offset, _ctx, block in _iter_code_trees(ctx, include_doctests=True):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _resolve_call(ctx, block, node)
                if name not in GENERATOR_CONSTRUCTORS:
                    continue
                seed = _seed_argument(node)
                if (seed is None and not node.keywords) or (
                    isinstance(seed, ast.Constant) and seed.value is None
                ):
                    yield self.diag(
                        ctx,
                        node,
                        f"{name}() without seed material draws OS entropy; "
                        "thread an explicit seed, SeedSequence or Generator",
                        line_offset=offset,
                    )


@register_rule
class LegacyNumpyRng(Rule):
    """Ban ``np.random.seed`` / ``RandomState`` / global samplers."""

    code = "RL102"
    name = "legacy-numpy-rng"
    summary = "legacy global-state numpy RNG API used"
    rationale = (
        "The legacy numpy RNG mutates hidden process-global state, so "
        "results depend on call order and parallel interleaving — the "
        "exact failure the fixed-RNG-block engine design rules out."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for tree, offset, _ctx, block in _iter_code_trees(ctx, include_doctests=True):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _resolve_call(ctx, block, node)
                if name in LEGACY_NUMPY_RNG:
                    yield self.diag(
                        ctx,
                        node,
                        f"legacy global-state RNG call {name}(); use a "
                        "threaded numpy.random.Generator instead",
                        line_offset=offset,
                    )


@register_rule
class StdlibRandom(Rule):
    """Ban the stdlib ``random`` module in library code."""

    code = "RL103"
    name = "stdlib-random"
    summary = "stdlib random module imported"
    rationale = (
        "stdlib random is a process-global Mersenne Twister with no "
        "SeedSequence spawning, so per-player stream independence and "
        "block-wise seed derivation cannot be expressed with it."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for tree, offset, _ctx, _block in _iter_code_trees(ctx, include_doctests=True):
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name == "random" or alias.name.startswith("random."):
                            yield self.diag(
                                ctx,
                                node,
                                "stdlib random imported; use numpy Generators "
                                "threaded via repro.rng",
                                line_offset=offset,
                            )
                elif isinstance(node, ast.ImportFrom):
                    if node.level == 0 and node.module == "random":
                        yield self.diag(
                            ctx,
                            node,
                            "stdlib random imported; use numpy Generators "
                            "threaded via repro.rng",
                            line_offset=offset,
                        )


@register_rule
class HardCodedSeed(Rule):
    """Functions must accept randomness, not conjure it from a literal."""

    code = "RL104"
    name = "hard-coded-seed"
    summary = "function builds its own Generator from a literal seed"
    rationale = (
        "A literal seed inside a function pins every caller to one "
        "stream: independent trials silently correlate and the seed "
        "cannot participate in cache keys.  Accept an rng/seed parameter "
        "(repro.rng.RngLike) and thread it instead."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        # Doctests are exempt: a pinned literal seed is exactly what makes
        # an example reproducible.
        if ctx.is_module(RNG_COERCION_MODULE):
            return
        for function in ctx.functions():
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                if ctx.call_name(node) not in GENERATOR_CONSTRUCTORS:
                    continue
                seed = _seed_argument(node)
                if (
                    isinstance(seed, ast.Constant)
                    and isinstance(seed.value, int)
                    and not isinstance(seed.value, bool)
                ):
                    yield self.diag(
                        ctx,
                        node,
                        f"function {function.name}() creates a Generator from "
                        "a hard-coded seed; accept an rng/seed parameter "
                        "(repro.rng.RngLike) and thread it",
                    )


@register_rule
class DunderImport(Rule):
    """Ban ``__import__`` — it hides calls from every static rule."""

    code = "RL105"
    name = "dunder-import"
    summary = "__import__() call defeats static analysis"
    rationale = (
        "Modules reached through __import__ are invisible to the RNG and "
        "wall-clock rules (and to ruff/mypy), so a violation routed "
        "through it would pass the gate unseen.  Use a plain import."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for tree, offset, _ctx, _block in _iter_code_trees(ctx, include_doctests=True):
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "__import__"
                ):
                    yield self.diag(
                        ctx,
                        node,
                        "__import__() hides the imported module from static "
                        "analysis; use a plain import statement",
                        line_offset=offset,
                    )
