"""The AcceptKernel substrate: one interface for every estimator.

An *accept kernel* is the unit every Monte-Carlo estimation in this
library reduces to: a pure, trial-batched function

    ``accept_block(distribution, trials, generator) -> bool[trials]``

plus a stable ``cache_token`` naming the computation and an
``elements_per_trial`` sizing hint for memory-bounded tiling.  The engine
owns everything around the kernel — chunked streaming, backends, the
on-disk acceptance cache, metrics, and block-granular sequential early
stopping (:func:`~repro.engine.estimate.estimate_acceptance`).

Purity contract
---------------
``accept_block`` must be a pure function of ``(kernel configuration,
distribution, trials, generator)``: every random draw comes from the
passed generator, and the result depends on nothing else.  The engine
seeds one generator per RNG block (``default_rng(SeedSequence(root,
spawn_key=(b,)))``), which is what makes results bit-identical across
backends, worker counts and tile sizes — and what makes the cache token a
faithful name for the whole acceptance curve.

``cache_token`` must change whenever the sampling logic or its
calibration changes (bump the per-kernel ``kernel_version`` entry), and
must differ between kernels that could otherwise share every numeric
parameter — a closeness curve at (n, q) must never collide with a
protocol curve at the same (n, q).

One kernel protocol
-------------------
Every estimated object implements the three members itself: the
uniformity testers (defaults on :class:`~repro.core.base.UniformityTester`),
:class:`~repro.core.protocol.SimultaneousProtocol` and the testers built
on one, the streaming testers, and the closeness, independence, network
and learning kernels.  The engine does not adapt anything:
:func:`require_kernel` rejects an object whose type lacks a member.
Each of them inherits its front-end (``accept_batch``, ``test``,
``acceptance_probability``) and its token header from
:class:`~repro.engine.estimate.KernelBase`.
"""

from __future__ import annotations

from typing import Any, Dict, Protocol, runtime_checkable

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import RngLike

#: Bump when the kernel-token layout itself changes incompatibly.
KERNEL_SCHEMA_VERSION = 1

#: Boolean accept vectors flowing out of kernels.
BoolArray = np.ndarray


@runtime_checkable
class AcceptKernel(Protocol):
    """Structural interface of an accept kernel (see module docstring)."""

    @property
    def cache_token(self) -> Dict[str, Any]:
        """Stable JSON-serialisable identity of the computation."""
        ...

    @property
    def elements_per_trial(self) -> int:
        """Memory footprint hint (array elements per trial) for tiling."""
        ...

    def accept_block(
        self, distribution: Any, trials: int, rng: RngLike = None
    ) -> BoolArray:
        """Boolean accept vector for one RNG block (pure in its inputs)."""
        ...


#: The members a kernel's type must define.
KERNEL_MEMBERS = ("accept_block", "cache_token", "elements_per_trial")


def require_kernel(obj: Any) -> None:
    """Raise unless ``obj``'s type defines every :data:`KERNEL_MEMBERS`.

    The check reads the type, so no ``cache_token`` is evaluated.
    """
    missing = [name for name in KERNEL_MEMBERS if not hasattr(type(obj), name)]
    if missing:
        raise InvalidParameterError(
            f"{type(obj).__name__} is not an AcceptKernel: it lacks "
            + ", ".join(missing)
        )


def kernel_label(kernel: AcceptKernel) -> str:
    """Short per-kernel metrics label derived from the cache token."""
    token = kernel.cache_token
    label = token.get("class") or token.get("kind") or "kernel"
    return str(label)
