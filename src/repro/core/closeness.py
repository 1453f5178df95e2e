"""Closeness testing — uniformity's generalisation (§1 of the paper).

The paper motivates uniformity testing as a special case of *closeness
testing*: given samples from two unknown distributions p and r, decide
whether p = r or ‖p − r‖₁ ≥ ε.  Lower bounds on uniformity transfer to
closeness (fix r = U_n); this module provides the classical upper bound so
the library covers the problem the lower bounds speak to.

The statistic is the Poissonized ℓ2 estimator of Chan–Diakonikolas–
Valiant–Valiant: draw Poisson(q) samples from each side, collect counts
``A_v, B_v``, and form

    Z = Σ_v [ (A_v − B_v)² − A_v − B_v ].

Poissonization makes the counts independent across v and the estimator
exactly unbiased:  E[Z] = q²·‖p − r‖₂² (verified by the test suite).  An
ε-far pair has ‖p − r‖₂² ≥ ε²/n (Cauchy–Schwarz), so thresholding Z at
half the implied minimum separates the cases once q is large enough.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..distributions.discrete import DiscreteDistribution, uniform
from ..engine import KernelBase, distribution_fingerprint
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng


class ClosenessTester:
    """Two-sample closeness tester (accept ⟺ "p = r").

    Parameters
    ----------
    n:
        Domain size of both distributions.
    epsilon:
        ℓ1 proximity parameter.
    q:
        Expected samples per side (Poissonized).  The default is the
        ℓ2-route budget ``6·√(2n)/ε²``: detection needs the signal
        ``q²ε²/n`` to dominate the null standard deviation
        ``≈ q·√(2·Σp_v²) ≈ q·√(2/n)`` for near-uniform inputs, giving
        ``q = Θ(√n/ε²)``.  (The optimal closeness budget for worst-case
        *pairs* is Θ(n^{2/3}/ε^{4/3}) via max-count clipping, which this
        simple estimator does not implement.)
    """

    def __init__(self, n: int, epsilon: float, q: Optional[int] = None):
        if n < 2:
            raise InvalidParameterError(f"n must be >= 2, got {n}")
        if not 0.0 < epsilon < 1.0:
            raise InvalidParameterError(f"epsilon must be in (0,1), got {epsilon}")
        self.n = int(n)
        self.epsilon = float(epsilon)
        if q is None:
            # Detection needs q²·ε²/n >> std(Z|H0) ≈ sqrt(Σ 2λ_v²+...) ≈
            # q·sqrt(2·Σ p_v²); for near-uniform p that is q·sqrt(2/n),
            # giving q ≳ √2·n^{1/2}·... solving q²ε²/n ≥ c·q·√(2/n):
            # q ≥ c√(2n)/ε².
            q = max(4, int(math.ceil(6.0 * math.sqrt(2.0 * n) / epsilon**2)))
        self.q = int(q)
        if self.q < 1:
            raise InvalidParameterError(f"q must be >= 1, got {self.q}")
        # Midpoint between E[Z | p = r] = 0 and the minimum far value
        # E[Z | eps-far] >= q²ε²/n.
        self.threshold = 0.5 * self.q**2 * self.epsilon**2 / self.n

    def against(self, reference: DiscreteDistribution) -> "ClosenessAcceptKernel":
        """The accept kernel testing "p = ``reference``" (p is the input)."""
        if reference.n != self.n:
            raise InvalidParameterError(
                f"both distributions must live on n={self.n}"
            )
        return ClosenessAcceptKernel(self, reference)

    def accept_batch(
        self,
        p: DiscreteDistribution,
        r: DiscreteDistribution,
        trials: int,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Boolean accept vector over independent executions."""
        return self.against(r).accept_batch(p, trials, rng)

    def test(
        self, p: DiscreteDistribution, r: DiscreteDistribution, rng: RngLike = None
    ) -> bool:
        """One execution: True iff the tester says "p = r"."""
        return self.against(r).test(p, rng)

    def acceptance_probability(
        self,
        p: DiscreteDistribution,
        r: DiscreteDistribution,
        trials: int,
        rng: RngLike = None,
    ) -> float:
        """Monte Carlo estimate of P[accept], via the engine entry point."""
        return self.against(r).acceptance_probability(p, trials, rng)

    def as_uniformity_tester(self) -> "UniformityViaCloseness":
        """Uniformity testing as the special case r = U_n (§1's framing)."""
        return UniformityViaCloseness(self)

    def __repr__(self) -> str:
        return f"ClosenessTester(n={self.n}, eps={self.epsilon}, q={self.q})"


class ClosenessAcceptKernel(KernelBase):
    """Accept kernel of a :class:`ClosenessTester` with the reference bound.

    The engine's kernel interface takes *one* distribution, so the
    two-sample tester enters the substrate by currying: the kernel holds
    the reference side r and receives p as the estimated distribution.
    The cache token fingerprints the reference pmf, so curves against
    different references — and against uniformity-protocol kernels
    sharing (n, q) — can never collide.
    """

    kernel_version = 1

    def __init__(self, closeness: ClosenessTester, reference: DiscreteDistribution):
        self.closeness = closeness
        self.reference = reference

    @property
    def cache_token(self) -> dict:
        return {
            **self._token_header("closeness"),
            "n": self.closeness.n,
            "epsilon": self.closeness.epsilon,
            "q": self.closeness.q,
            "threshold": self.closeness.threshold,
            "reference": distribution_fingerprint(self.reference),
        }

    @property
    def elements_per_trial(self) -> int:
        return 2 * self.closeness.n

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Single-tile kernel: Poissonized counts for both sides, vectorised."""
        if distribution.n != self.closeness.n:
            raise InvalidParameterError(
                f"both distributions must live on n={self.closeness.n}"
            )
        generator = ensure_rng(rng)
        q = float(self.closeness.q)
        shape = (trials, self.closeness.n)
        counts_a = generator.poisson(q * distribution.pmf, size=shape).astype(
            np.float64
        )
        counts_b = generator.poisson(q * self.reference.pmf, size=shape).astype(
            np.float64
        )
        difference = counts_a - counts_b
        statistics = (difference * difference - counts_a - counts_b).sum(axis=1)
        return statistics <= self.closeness.threshold

    def __repr__(self) -> str:
        return f"ClosenessAcceptKernel({self.closeness!r})"


class UniformityViaCloseness(KernelBase):
    """Adapter: run the closeness tester against explicit uniform samples.

    This is deliberately wasteful (the uniform side is known, yet we spend
    samples on it) — it demonstrates the §1 claim that uniformity is the
    special case, and the E-suite measures the overhead of forgetting
    that the reference is known.
    """

    def __init__(self, closeness: ClosenessTester):
        self.closeness = closeness
        self.n = closeness.n
        self.epsilon = closeness.epsilon
        self._kernel = closeness.against(uniform(closeness.n))

    @property
    def cache_token(self) -> dict:
        token = dict(self._kernel.cache_token)
        token["class"] = "UniformityViaCloseness"
        return token

    @property
    def elements_per_trial(self) -> int:
        return self._kernel.elements_per_trial

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        return self._kernel.accept_block(distribution, trials, rng)
