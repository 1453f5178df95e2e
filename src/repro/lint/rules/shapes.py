"""Kernel-contract shape/dtype/RNG-budget rules (RL801–RL804).

These replay findings from the symbolic shape interpreter in
:mod:`repro.lint.dataflow.shapes` through the ordinary diagnostics
pipeline, exactly like the RL6xx/RL7xx families (see
:mod:`.streams` for the replay mechanics).

All four rules are scoped to ``accept_block``/``*_block`` methods of
AcceptKernel-shaped classes (a class defining both ``accept_block`` and
``cache_token``) and fire on **provable** violations only: a shape,
dtype, or draw count the interpreter cannot pin down degrades to ⊤ and
passes silently, so sound-but-clever kernels need no pragmas.
"""

from __future__ import annotations

from ..registry import register_rule
from .streams import _DataflowRule


@register_rule
class BlockReturnShape(_DataflowRule):
    """A ``*_block`` return value provably violates the batch contract."""

    code = "RL801"
    name = "block-return-shape"
    summary = "accept_block return provably not a boolean (trials,) vector"
    rationale = (
        "The engine's whole-batch contract is accept_block(distribution, "
        "trials, rng) -> bool[trials]: the SPRT early-stopper, the "
        "acceptance cache, and every backend index that vector "
        "positionally.  A reduction with a missing or wrong axis= "
        "collapses it to a scalar or leaves a (trials, k) matrix, and "
        "numpy's broadcasting hides the damage until curves disagree.  "
        "Reduce per-trial axes explicitly (axis=1) and return a boolean "
        "vector of length trials."
    )


@register_rule
class PlatformDependentDtype(_DataflowRule):
    """Platform-/value-dependent dtype in the accept path or cache key."""

    code = "RL802"
    name = "platform-dependent-dtype"
    summary = "platform-dependent dtype or float equality in a kernel path"
    rationale = (
        "Cached acceptance curves and cross-backend parity are asserted "
        "bit-for-bit.  np.int_/np.intp and bare astype(int) change width "
        "between platforms (32-bit on Windows/ILP32), and == on float "
        "arrays turns round-off into a decision bit; either way the same "
        "seed yields different accept vectors on different machines.  "
        "Spell widths explicitly (np.int64) and compare integer counts."
    )


@register_rule
class RngBudgetMismatch(_DataflowRule):
    """Declared ``elements_per_trial`` provably under the real draws."""

    code = "RL803"
    name = "rng-budget-mismatch"
    summary = "elements_per_trial smaller than inferred per-trial RNG draws"
    rationale = (
        "plan_tiles sizes trial blocks from "
        "elements_per_trial; a declaration below the real per-trial "
        "draw count makes the tiler promise memory bounds the kernel "
        "then exceeds, and the cost model mis-prices every block.  The "
        "hint may over-declare (it is a footprint, not an exact count) "
        "but never under-declare.  Symbols count as sizes >= 1; only a "
        "provable shortfall fires."
    )


@register_rule
class BroadcastIncompatible(_DataflowRule):
    """Operand shapes provably incompatible under broadcasting."""

    code = "RL804"
    name = "broadcast-incompatible"
    summary = "broadcast-incompatible operand shapes reachable in a kernel"
    rationale = (
        "A shape mismatch inside accept_block raises only when that "
        "path executes — typically at a scale or parameter corner the "
        "smoke suite never visits.  Both dimensions are statically "
        "known, unequal, and neither is 1, so the ValueError is "
        "guaranteed on that path; align the trial axis explicitly "
        "(reshape/[:, None]) instead."
    )
