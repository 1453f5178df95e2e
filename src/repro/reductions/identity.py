"""Identity testing via reduction to uniformity (Goldreich [11]).

Testing identity to a *known* target distribution ``t`` reduces to
uniformity testing: transform each sample through a randomized filter so
that if μ = t the output is **exactly uniform** on a larger "grain"
domain, while if μ is ε-far from t the output stays Ω(ε)-far from
uniform.  The reduction is sample-preserving (one output grain per input
sample), so it composes with every tester in :mod:`repro.core`, including
the distributed ones — each player simply filters its own samples with
its own coins (the filter draws independently per sample).

The construction (following [11], simplified):

1. **Mix** with uniform: conceptually replace μ by ν = ½μ + ½U_n (each
   player flips a fair coin per sample and either keeps the sample or
   redraws uniformly).  This bounds every target mass below by 1/(2n)
   while halving ℓ1 distances.
2. **Grain** the mixed target t' = ½t + ½U_n at granularity
   ``g ≈ ε/(c·n)``: element i gets ``m_i = floor(t'_i/g)`` grains.
3. **Filter**: a sample i (from ν) is routed to a uniformly random grain
   of i with probability ``m_i·g/t'_i``, and to a uniformly random
   *slack grain* otherwise.  If μ = t, every grain receives exactly mass
   g — the output is exactly uniform on ``M_total`` grains; any ε-far μ
   yields an output that is at least ``ε/2 − 2/c``-far from uniform.

Because the output uniformity is *exact* under the null, the library can
verify the reduction analytically (:meth:`IdentityTestingReduction.
output_pmf` is a linear map on input pmfs), not just statistically.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..distributions.discrete import DiscreteDistribution
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng


class IdentityTestingReduction:
    """The randomized sample transformation of the identity→uniformity
    reduction.

    Parameters
    ----------
    target:
        The known distribution t identity is tested against.
    epsilon:
        The identity-testing proximity parameter; ε-far inputs map to
        ``residual_epsilon``-far-from-uniform outputs.
    grain_factor:
        The constant c in the granularity ``g = ε/(c·n)``; larger c means
        a bigger output domain but less rounding loss.
    """

    def __init__(
        self, target: DiscreteDistribution, epsilon: float, grain_factor: float = 24.0
    ):
        if not 0.0 < epsilon < 1.0:
            raise InvalidParameterError(f"epsilon must be in (0,1), got {epsilon}")
        if grain_factor < 4.0:
            raise InvalidParameterError(
                f"grain_factor must be >= 4 (rounding loss eats the gap), "
                f"got {grain_factor}"
            )
        self.target = target
        self.epsilon = float(epsilon)
        self.grain_factor = float(grain_factor)

        n = target.n
        self.n = n
        # Step 1: the mixed target t' = (t + U_n)/2; all masses >= 1/(2n).
        self._mixed_target = 0.5 * target.pmf + 0.5 / n
        # Step 2: graining.
        self.grain = self.epsilon / (self.grain_factor * n)
        self._grains_per_element = np.floor(self._mixed_target / self.grain).astype(
            np.int64
        )
        if np.any(self._grains_per_element < 1):
            raise InvalidParameterError(
                "granularity too coarse: some element got zero grains "
                "(increase grain_factor)"
            )
        # Step 3: acceptance probability of the filter per element, and the
        # slack grains absorbing the rejected mass so the null stays exactly
        # uniform.
        self._accept_probability = (
            self._grains_per_element * self.grain / self._mixed_target
        )
        element_grains = int(self._grains_per_element.sum())
        rejected_null_mass = 1.0 - element_grains * self.grain
        self.slack_grains = max(1, int(round(rejected_null_mass / self.grain)))
        self.output_domain_size = element_grains + self.slack_grains
        self._grain_offsets = np.concatenate(
            [[0], np.cumsum(self._grains_per_element)]
        )

    # ------------------------------------------------------------------ #
    # analytic form                                                      #
    # ------------------------------------------------------------------ #

    def residual_epsilon(self) -> float:
        """The farness guarantee on the output when the input is ε-far.

        Mixing halves the distance and graining loses at most ``2/c`` of
        it (n elements × one grain of rounding each, on both sides), so an
        ε-far input produces an output at least ``ε/2 − 2/grain_factor``
        far from uniform.
        """
        return self.epsilon / 2.0 - 2.0 / self.grain_factor

    def output_pmf(self, input_distribution: DiscreteDistribution) -> np.ndarray:
        """The exact output distribution of the reduction, as a pmf.

        The reduction is a fixed stochastic map; this evaluates it in
        closed form.  For ``input_distribution == target`` the result is
        exactly uniform on the output domain (up to the slack-grain
        rounding, which vanishes as grain_factor grows).
        """
        if input_distribution.n != self.n:
            raise InvalidParameterError(
                f"input domain {input_distribution.n} != target domain {self.n}"
            )
        mixed = 0.5 * input_distribution.pmf + 0.5 / self.n
        accepted = mixed * self._accept_probability
        out = np.empty(self.output_domain_size, dtype=np.float64)
        per_grain = accepted / self._grains_per_element
        out[: self._grain_offsets[-1]] = np.repeat(
            per_grain, self._grains_per_element
        )
        out[self._grain_offsets[-1] :] = (1.0 - accepted.sum()) / self.slack_grains
        return out

    # ------------------------------------------------------------------ #
    # sampling form                                                      #
    # ------------------------------------------------------------------ #

    def transform_samples(
        self, samples: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        """Map raw samples of μ to grain samples (vectorised).

        Implements mix → filter → route per sample using private
        randomness; output values lie in ``[0, output_domain_size)``.
        """
        generator = ensure_rng(rng)
        flat = np.asarray(samples, dtype=np.int64)
        shape = flat.shape
        flat = flat.ravel()
        if flat.size and (flat.min() < 0 or flat.max() >= self.n):
            raise InvalidParameterError("samples outside the target's domain")

        # Step 1: mix with uniform.
        redraw = generator.random(flat.size) < 0.5
        mixed = np.where(
            redraw, generator.integers(0, self.n, size=flat.size), flat
        )
        # Step 3: filter and route.
        accept = generator.random(flat.size) < self._accept_probability[mixed]
        grain_within = (
            generator.random(flat.size) * self._grains_per_element[mixed]
        ).astype(np.int64)
        routed = self._grain_offsets[mixed] + grain_within
        slack = self._grain_offsets[-1] + generator.integers(
            0, self.slack_grains, size=flat.size
        )
        return np.where(accept, routed, slack).reshape(shape)

    def __repr__(self) -> str:
        return (
            f"IdentityTestingReduction(n={self.n} -> {self.output_domain_size}, "
            f"eps={self.epsilon} -> {self.residual_epsilon():.3f})"
        )


class IdentityTester:
    """Test identity to a known target with any uniformity tester.

    Parameters
    ----------
    target:
        The known distribution to test identity against.
    epsilon:
        Identity proximity parameter.
    tester_factory:
        ``(domain_size, residual_epsilon) -> UniformityTester``.  Defaults
        to the centralized collision tester; pass a
        :class:`~repro.core.testers.ThresholdRuleTester` factory for the
        distributed version (players apply the same reduction to their own
        samples).
    grain_factor:
        Forwarded to :class:`IdentityTestingReduction`.

    Example
    -------
    >>> import repro
    >>> from repro.reductions import IdentityTester
    >>> target = repro.zipf_distribution(64, 0.5)
    >>> tester = IdentityTester(target, epsilon=0.6)
    >>> tester.test(target, rng=0)
    True
    """

    def __init__(
        self,
        target: DiscreteDistribution,
        epsilon: float,
        tester_factory: Optional[Callable[[int, float], "object"]] = None,
        grain_factor: float = 24.0,
    ):
        self.reduction = IdentityTestingReduction(target, epsilon, grain_factor)
        residual = self.reduction.residual_epsilon()
        if residual <= 0.0:
            raise InvalidParameterError(
                "reduction leaves no farness gap; increase grain_factor"
            )
        if tester_factory is None:
            from ..core.testers import CentralizedCollisionTester

            tester_factory = CentralizedCollisionTester
        self.uniformity_tester = tester_factory(
            self.reduction.output_domain_size, residual
        )

    @property
    def samples_needed(self) -> int:
        """Total input samples consumed per execution."""
        return self.uniformity_tester.resources.total_samples

    def accept_batch(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Boolean accept vector (True = "identical to target")."""
        generator = ensure_rng(rng)
        reduced = _ReducedDistributionView(self.reduction, distribution, generator)
        return self.uniformity_tester.accept_batch(reduced, trials, generator)

    def test(self, distribution: DiscreteDistribution, rng: RngLike = None) -> bool:
        """One execution of the identity test."""
        return bool(self.accept_batch(distribution, 1, rng)[0])

    def acceptance_probability(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> float:
        """Monte Carlo estimate of P[accept], via the engine entry point.

        The inner uniformity tester's kernel runs against the reduced
        view; the view's exact ``pmf`` (the reduction is a closed-form
        linear map) is what keys the acceptance cache.
        """
        from ..engine import estimate_acceptance

        generator = ensure_rng(rng)
        reduced = _ReducedDistributionView(self.reduction, distribution, generator)
        return estimate_acceptance(
            self.uniformity_tester, reduced, trials=trials, rng=generator
        ).rate


class _ReducedDistributionView:
    """Duck-typed distribution: samples μ, then applies the reduction.

    Presents the interface testers consume (``n``, ``sample``,
    ``sample_matrix``) while drawing through the randomized filter, so an
    unmodified uniformity tester runs on the reduced domain.
    """

    def __init__(
        self,
        reduction: IdentityTestingReduction,
        source: DiscreteDistribution,
        rng: np.random.Generator,
    ):
        self._reduction = reduction
        self._source = source
        self._rng = rng
        self._pmf: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self._reduction.output_domain_size

    @property
    def pmf(self) -> np.ndarray:
        """Exact output pmf of the reduction (computed lazily, cached).

        Lets the engine fingerprint the reduced distribution for its
        acceptance cache exactly as it would a concrete distribution.
        """
        if self._pmf is None:
            self._pmf = self._reduction.output_pmf(self._source)
        return self._pmf

    def sample(self, size: int, rng: RngLike = None) -> np.ndarray:
        generator = ensure_rng(rng) if rng is not None else self._rng
        raw = self._source.sample(size, generator)
        return self._reduction.transform_samples(raw, generator)

    def sample_matrix(self, rows: int, cols: int, rng: RngLike = None) -> np.ndarray:
        return self.sample(rows * cols, rng).reshape(rows, cols)
