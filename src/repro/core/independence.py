"""Independence testing — the other §1 generalisation of uniformity.

The paper notes uniformity testing is a special case of *independence
testing*: given samples of a joint distribution on ``[n1] × [n2]``, decide
whether it equals the product of its marginals or is ε-far (in ℓ1) from
every product distribution.  Lower bounds transfer (uniform × uniform is
a product), and the implemented upper bound composes two pieces already in
the library:

1. **Product-sample synthesis** — pairing the x-coordinate of one fresh
   joint sample with the y-coordinate of *another* yields an exact i.i.d.
   sample of the product-of-marginals (at 2 joint samples each);
2. **Closeness testing** — the Poissonized CDVV statistic of
   :mod:`repro.core.closeness` between the joint and the synthesized
   product.

Farness bookkeeping: a distribution ε-far from the *set* of product
distributions is at least ε/3-far from *its own* product of marginals
(folklore triangle-inequality argument), so the closeness sub-tester runs
at proximity ε/3.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..distributions.discrete import DiscreteDistribution
from ..engine import KernelBase
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng
def _validate_shape(n1: int, n2: int) -> None:
    if n1 < 1 or n2 < 1:
        raise InvalidParameterError(f"need n1, n2 >= 1, got {n1}, {n2}")


def joint_from_matrix(matrix: np.ndarray) -> DiscreteDistribution:
    """A joint distribution from an (n1 × n2) probability matrix.

    The flat encoding is row-major: outcome ``(i, j) → i·n2 + j``.
    """
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim != 2:
        raise InvalidParameterError(f"matrix must be 2-d, got ndim={array.ndim}")
    return DiscreteDistribution(array.ravel(), normalize=False)


def marginals(
    joint: DiscreteDistribution, n1: int, n2: int
) -> Tuple[DiscreteDistribution, DiscreteDistribution]:
    """The two marginal distributions of a flat-encoded joint."""
    _validate_shape(n1, n2)
    if joint.n != n1 * n2:
        raise InvalidParameterError(
            f"joint has domain {joint.n}, expected n1·n2 = {n1 * n2}"
        )
    matrix = joint.pmf.reshape(n1, n2)
    return (
        DiscreteDistribution(matrix.sum(axis=1)),
        DiscreteDistribution(matrix.sum(axis=0)),
    )


def product_of_marginals(
    joint: DiscreteDistribution, n1: int, n2: int
) -> DiscreteDistribution:
    """The product distribution built from the joint's own marginals."""
    left, right = marginals(joint, n1, n2)
    return DiscreteDistribution(np.outer(left.pmf, right.pmf).ravel())


def distance_from_own_product(joint: DiscreteDistribution, n1: int, n2: int) -> float:
    """‖joint − marginal₁ × marginal₂‖₁ — the detectable farness proxy."""
    from ..distributions.distances import l1_distance

    return l1_distance(joint, product_of_marginals(joint, n1, n2))


def correlated_joint(n: int, correlation: float) -> DiscreteDistribution:
    """A canonical correlated workload on [n]×[n].

    Mixes the independent uniform×uniform joint with the perfectly
    correlated diagonal: ``correlation = 0`` is exactly independent,
    ``correlation = 1`` is x = y always.  Its ℓ1 distance from its own
    product grows continuously with the knob.
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    if not 0.0 <= correlation <= 1.0:
        raise InvalidParameterError(
            f"correlation must be in [0,1], got {correlation}"
        )
    matrix = np.full((n, n), (1.0 - correlation) / (n * n))
    matrix[np.diag_indices(n)] += correlation / n
    return joint_from_matrix(matrix)


class IndependenceTester(KernelBase):
    """Test independence of a joint distribution on [n1] × [n2].

    Accept ⟺ "the joint is a product distribution".  Uses Poissonized
    sampling: roughly ``q`` joint samples feed the joint side and ``2q``
    more synthesize the product side.

    Parameters
    ----------
    n1, n2:
        Marginal domain sizes (the joint lives on n1·n2 outcomes).
    epsilon:
        ℓ1 proximity to the set of product distributions.
    q:
        Expected joint-side sample count; default follows the closeness
        budget on the n1·n2 domain at proximity ε/3.
    """

    #: v2: counts drawn directly as independent Poissons (same law as
    #: the pairing construction, different stream).
    kernel_version = 2

    def __init__(self, n1: int, n2: int, epsilon: float, q: Optional[int] = None):
        _validate_shape(n1, n2)
        if not 0.0 < epsilon < 1.0:
            raise InvalidParameterError(f"epsilon must be in (0,1), got {epsilon}")
        self.n1, self.n2 = int(n1), int(n2)
        self.n = self.n1 * self.n2
        self.epsilon = float(epsilon)
        self.residual_epsilon = epsilon / 3.0
        if q is None:
            q = max(
                4,
                int(math.ceil(6.0 * math.sqrt(2.0 * self.n) / self.residual_epsilon**2)),
            )
        self.q = int(q)
        self.threshold = 0.5 * self.q**2 * self.residual_epsilon**2 / self.n

    @property
    def total_joint_samples(self) -> int:
        """Expected joint samples consumed per execution (joint + synthesis)."""
        return 3 * self.q

    @property
    def cache_token(self) -> dict:
        return {
            **self._token_header("independence"),
            "n1": self.n1,
            "n2": self.n2,
            "epsilon": self.epsilon,
            "q": self.q,
            "threshold": self.threshold,
        }

    @property
    def elements_per_trial(self) -> int:
        return self.total_joint_samples + 2 * self.n

    def accept_block(
        self, joint: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Single-tile kernel: Poissonized counts for every trial at once.

        Both sides are drawn directly as independent per-cell Poissons —
        equal in law to the sequential pairing construction (Poisson
        total + multinomial split on the joint side; Poisson total of
        marginal-paired samples on the product side), since
        Poissonization makes cell counts independent Poissons either way.
        """
        if joint.n != self.n:
            raise InvalidParameterError(
                f"joint has domain {joint.n}, expected {self.n}"
            )
        generator = ensure_rng(rng)
        q = float(self.q)
        shape = (trials, self.n)
        joint_counts = generator.poisson(q * joint.pmf, size=shape).astype(
            np.float64
        )
        product = product_of_marginals(joint, self.n1, self.n2)
        product_counts = generator.poisson(q * product.pmf, size=shape).astype(
            np.float64
        )
        difference = joint_counts - product_counts
        statistics = (
            difference * difference - joint_counts - product_counts
        ).sum(axis=1)
        return statistics <= self.threshold

    def __repr__(self) -> str:
        return (
            f"IndependenceTester(n1={self.n1}, n2={self.n2}, "
            f"eps={self.epsilon}, q={self.q})"
        )
