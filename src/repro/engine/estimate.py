"""The single estimation entry point: fixed budgets and block-granular SPRT.

:func:`estimate_acceptance` is where every acceptance-probability
estimate in the library runs.  It layers, around any
:class:`~repro.engine.kernels.AcceptKernel`:

* chunked streaming over the active backend (fixed RNG blocks grouped
  into memory-bounded tiles);
* the on-disk acceptance cache, keyed by kernel identity + version so
  distinct kernels sharing every numeric parameter cannot collide;
* per-kernel metrics counters;
* Wald's sequential probability-ratio test, **evaluated only at RNG-block
  boundaries**.

Both modes run the executor's one accept-tile loop
(:func:`~repro.engine.executor._dispatch`): a fixed budget sums the
accept vector it returns; SPRT passes a ``consume`` callback.

:class:`KernelBase` is the estimator front-end every kernel in the
library inherits: ``accept_batch``, ``test`` and
``acceptance_probability`` defined once over the engine, plus the shared
header of a hand-built ``cache_token``.

Block-granular early stopping
-----------------------------
In sequential mode the loop dispatches tiles in waves (one tile per
backend worker) but *consumes* blocks strictly in block-index order:
the callback updates the log-likelihood ratio one block at a time, and
the first block whose update crosses a Wald boundary fixes both the
verdict and ``trials_used``.  Blocks executed beyond the crossing are
discarded.  Because the scan order and the per-block results depend only
on the root entropy — never on scheduling — ``(verdict, trials_used)``
is bit-deterministic across backends, worker counts and tile sizes; the
wave width only changes how much speculative work is thrown away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import RngLike
from .cache import cacheable_seed, kernel_probe_key
from .chunking import Block
from .config import get_engine
from .executor import Array, _dispatch, chunked_accepts, derive_root_entropy
from .kernels import KERNEL_SCHEMA_VERSION, AcceptKernel, kernel_label, require_kernel


@dataclass(frozen=True)
class SprtSpec:
    """Parameters of one sequential classification (Wald's SPRT).

    Tests the simple hypotheses ``p = target + margin`` against
    ``p = target - margin`` with two-sided error bound ``error_rate``;
    ``max_trials`` caps the budget (the sign of the log-likelihood ratio
    decides when it is hit).
    """

    target: float
    margin: float = 0.05
    error_rate: float = 0.05
    max_trials: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise InvalidParameterError(
                f"target must be in (0,1), got {self.target}"
            )
        if not 0.0 < self.margin < min(self.target, 1.0 - self.target):
            raise InvalidParameterError(
                f"margin must be in (0, min(target, 1-target)), got {self.margin}"
            )
        if not 0.0 < self.error_rate < 0.5:
            raise InvalidParameterError(
                f"error_rate must be in (0, 0.5), got {self.error_rate}"
            )
        if self.max_trials < 1:
            raise InvalidParameterError(
                f"max_trials must be >= 1, got {self.max_trials}"
            )

    @property
    def success_step(self) -> float:
        """Log-likelihood increment per accepting trial."""
        return math.log((self.target + self.margin) / (self.target - self.margin))

    @property
    def failure_step(self) -> float:
        """Log-likelihood increment per rejecting trial."""
        return math.log(
            (1.0 - self.target - self.margin) / (1.0 - self.target + self.margin)
        )

    @property
    def boundary(self) -> float:
        """Wald's symmetric decision boundary ``log((1-α)/α)``."""
        return math.log((1.0 - self.error_rate) / self.error_rate)

    def token(self) -> Dict[str, Any]:
        """Cache-key description of this spec."""
        return {
            "target": self.target,
            "margin": self.margin,
            "error_rate": self.error_rate,
            "max_trials": self.max_trials,
        }


@dataclass(frozen=True)
class AcceptanceEstimate:
    """Result of one engine-run acceptance estimation.

    ``rate`` is always ``successes / trials_used``.  The sequential
    fields (``decided_above``, ``log_likelihood_ratio``) are ``None``
    for fixed-budget runs; ``stopped_early`` is ``True`` only when an
    SPRT boundary was crossed before ``max_trials``.
    """

    rate: float
    trials_used: int
    successes: int
    decided_above: Optional[bool] = None
    log_likelihood_ratio: Optional[float] = None
    stopped_early: bool = False
    from_cache: bool = False


def _estimate_sequential(
    kernel: AcceptKernel, distribution: Any, spec: SprtSpec, root_entropy: int
) -> AcceptanceEstimate:
    success_step = spec.success_step
    failure_step = spec.failure_step
    boundary = spec.boundary
    log_ratio = 0.0
    successes = 0

    def consume(block: Block, accepts: np.ndarray) -> bool:
        nonlocal log_ratio, successes
        wins = int(accepts.sum())
        successes += wins
        log_ratio += wins * success_step + (block.trials - wins) * failure_step
        return abs(log_ratio) >= boundary

    used = _dispatch(
        kernel,
        distribution,
        spec.max_trials,
        root_entropy,
        kernel.elements_per_trial,
        consume,
    ).size
    # The loop stops early only on a boundary crossing; the boundary is
    # positive, so the sign of the ratio is the verdict either way.
    stopped_early = used < spec.max_trials
    if stopped_early:
        metrics = get_engine().metrics
        metrics.count("sprt_early_stops")
        metrics.count("sprt_trials_saved", spec.max_trials - used)
    return AcceptanceEstimate(
        rate=successes / used,
        trials_used=used,
        successes=successes,
        decided_above=log_ratio > 0.0,
        log_likelihood_ratio=log_ratio,
        stopped_early=stopped_early,
    )


def _estimate_from_payload(payload: Dict[str, Any]) -> Optional[AcceptanceEstimate]:
    """Rebuild a cached estimate; ``None`` if the payload is malformed."""
    try:
        decided = payload.get("decided_above")
        log_ratio = payload.get("log_likelihood_ratio")
        return AcceptanceEstimate(
            rate=float(payload["rate"]),
            trials_used=int(payload["trials_used"]),
            successes=int(payload["successes"]),
            decided_above=None if decided is None else bool(decided),
            log_likelihood_ratio=None if log_ratio is None else float(log_ratio),
            stopped_early=bool(payload.get("stopped_early", False)),
            from_cache=True,
        )
    except (KeyError, TypeError, ValueError):
        return None


def _estimate_payload(estimate: AcceptanceEstimate) -> Dict[str, Any]:
    return {
        "rate": estimate.rate,
        "trials_used": estimate.trials_used,
        "successes": estimate.successes,
        "decided_above": estimate.decided_above,
        "log_likelihood_ratio": estimate.log_likelihood_ratio,
        "stopped_early": estimate.stopped_early,
    }


def estimate_acceptance(
    kernel: Any,
    distribution: Any,
    *,
    trials: Optional[int] = None,
    sprt: Optional[SprtSpec] = None,
    rng: RngLike = None,
) -> AcceptanceEstimate:
    """Estimate P[accept] of a kernel against a distribution.

    Exactly one of ``trials`` (fixed budget) and ``sprt`` (sequential
    classification) must be given.  ``kernel`` must be an
    :class:`~repro.engine.kernels.AcceptKernel` (every tester, protocol
    and streaming tester is one).

    Determinism: the result is a pure function of ``(kernel cache_token,
    distribution, mode, root entropy)``.  Integer and ``SeedSequence``
    seeds are additionally memoised in the active acceptance cache
    (generator seeds produce one-off roots and skip the cache).
    """
    require_kernel(kernel)
    if (trials is None) == (sprt is None):
        raise InvalidParameterError(
            "pass exactly one of trials= (fixed budget) or sprt= (SprtSpec)"
        )
    if trials is not None and trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")

    config = get_engine()
    metrics = config.metrics
    cacheable = config.cache is not None and cacheable_seed(rng)
    root_entropy = derive_root_entropy(rng)

    mode: Dict[str, Any]
    if trials is not None:
        mode = {"trials": int(trials)}
    else:
        assert sprt is not None
        mode = {"sprt": sprt.token()}

    key: Optional[Dict[str, Any]] = None
    if cacheable and config.cache is not None:
        key = kernel_probe_key(kernel, distribution, mode, root_entropy)
        payload = config.cache.get_estimate(key)
        if payload is not None:
            cached = _estimate_from_payload(payload)
            if cached is not None:
                metrics.count("cache_hits")
                return cached
        metrics.count("cache_misses")

    if trials is not None:
        accepts = _dispatch(
            kernel, distribution, trials, root_entropy, kernel.elements_per_trial
        )
        successes = int(np.asarray(accepts, dtype=bool).sum())
        estimate = AcceptanceEstimate(
            rate=successes / trials, trials_used=trials, successes=successes
        )
    else:
        assert sprt is not None
        estimate = _estimate_sequential(kernel, distribution, sprt, root_entropy)
    metrics.count(f"kernel:{kernel_label(kernel)}:trials", estimate.trials_used)

    if key is not None and config.cache is not None:
        config.cache.put_estimate(key, _estimate_payload(estimate))
    return estimate


class KernelBase:
    """The front-end of an accept kernel, defined once over the engine.

    Subclasses define the kernel members themselves (``accept_block``,
    ``cache_token``, ``elements_per_trial``; the base supplies none, so
    :func:`~repro.engine.kernels.require_kernel` still reads each class)
    and a ``kernel_version``.  In return they get the three ways to run
    it: one verdict, a tiled accept vector, and an engine estimate with
    caching, metrics and chunked streaming.
    """

    #: Bumped when the kernel's draw order or statistic changes, so
    #: stale cached acceptance curves cannot be read.
    kernel_version: int

    #: Whether the accept vector is unchanged, bit for bit under the same
    #: seed, when every draw is relabelled by a fixed permutation of the
    #: domain.  Such a kernel accepts equally often, in law, on any two
    #: distributions with the same sorted pmf, so a q* search probes one
    #: alternative per class.  The kernel contract test checks every
    #: ``True`` exactly; undeclared means not invariant.
    relabel_invariant: bool = False

    def _token_header(self, kind: str) -> Dict[str, Any]:
        """The ``{schema, kind, class, kernel_version}`` head of a token."""
        return {
            "schema": KERNEL_SCHEMA_VERSION,
            "kind": kind,
            "class": type(self).__name__,
            "kernel_version": int(self.kernel_version),
        }

    def accept_batch(
        self, distribution: Any, trials: int, rng: RngLike = None
    ) -> Array:
        """Boolean accept vector over ``trials`` independent executions.

        Tiled by :func:`~repro.engine.executor.chunked_accepts`: one
        spawned generator per RNG block, so the vector is bit-identical
        across backends and tile sizes and never held as one sample
        tensor.
        """
        return chunked_accepts(self, distribution, trials, rng)

    def test(self, distribution: Any, rng: RngLike = None) -> bool:
        """One execution: ``True`` iff the kernel accepts."""
        return bool(self.accept_batch(distribution, 1, rng)[0])

    def acceptance_probability(
        self, distribution: Any, trials: int, rng: RngLike = None
    ) -> float:
        """Monte Carlo estimate of P[accept], via :func:`estimate_acceptance`."""
        return estimate_acceptance(self, distribution, trials=trials, rng=rng).rate
