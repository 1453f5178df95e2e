"""Alternative centralized test statistics (baselines and ablations).

The collision count is not the only statistic that can drive a uniformity
tester; these baselines quantify *why* it is the right one:

* :class:`UniqueElementsTester` — count distinct observed values.  Same
  first-order signal as collisions (far inputs repeat more, so fewer
  distinct values) and the statistic behind Paninski's original
  coincidence tester; achieves the same Θ(√n/ε²) scaling.
* :class:`EmpiricalDistanceTester` — the plug-in tester: build the
  empirical histogram and threshold its ℓ1 distance from uniform.  This
  is the "obvious" approach and needs q = Θ(n/ε²) samples — a full √n
  factor worse, which the E14 ablation measures.

Both calibrate against the worst-case ε-far proxy exactly as the
collision testers do (the hard-family equivalence holds for *any*
symmetric statistic, since the probability multiset is shared).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..distributions.discrete import DiscreteDistribution
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng
from .base import TesterResources, UniformityTester
from .graphs import ComparisonGraphTester, complete_graph
from .testers import default_centralized_q


class UniqueElementsTester(ComparisonGraphTester):
    """Accept iff enough distinct values appear among q samples.

    The *distinct*-mode complete-graph instantiation of
    :class:`~repro.core.graphs.ComparisonGraphTester`: on ``K_q`` a
    vertex differs from every earlier neighbour exactly when its value is
    new, so the graph statistic is the distinct-value count.  Under U_n
    its expectation is ``n·(1 − (1 − 1/n)^q)``; ε-far inputs collide more
    and reveal fewer distinct values.  The acceptance cut sits at the
    Monte-Carlo midpoint between the uniform and worst-case-far means
    (:func:`~repro.core.graphs.calibrate_distinct_threshold`, which keeps
    the legacy calibration's exact draw order).
    """

    #: v2: rebuilt on the comparison-graph layer.  Calibration draw
    #: order, statistic and cut are bit-identical to v1; the bump marks
    #: the move from fingerprint-derived to native graph cache tokens.
    kernel_version = 2

    def __init__(
        self,
        n: int,
        epsilon: float,
        q: Optional[int] = None,
        calibration_rng: RngLike = 0,
        calibration_trials: int = 3000,
    ):
        # Validate (n, epsilon) before they feed the default-q formula.
        UniformityTester.__init__(self, n, epsilon)
        q = q if q is not None else default_centralized_q(n, epsilon)
        if q < 2:
            raise InvalidParameterError(f"q must be >= 2, got {q}")
        super().__init__(
            n,
            epsilon,
            complete_graph(q),
            mode="distinct",
            calibration_rng=calibration_rng,
            calibration_trials=calibration_trials,
        )

    @property
    def distinct_threshold(self) -> float:
        """Legacy name for the graph layer's ``statistic_threshold``."""
        return self.statistic_threshold

    @staticmethod
    def expected_distinct_uniform(n: int, q: int) -> float:
        """E[#distinct] under U_n: ``n·(1 − (1 − 1/n)^q)`` exactly."""
        if n < 1 or q < 0:
            raise InvalidParameterError("need n >= 1 and q >= 0")
        return n * (1.0 - (1.0 - 1.0 / n) ** q)


class EmpiricalDistanceTester(UniformityTester):
    """The plug-in (learn-then-decide) baseline: accept iff the empirical
    histogram's ℓ1 distance from uniform is below ε/2.

    The decision threshold is *analytic* — the fixed ε/2 midpoint of the
    learning approach — not Monte-Carlo calibrated.  (A calibrated
    midpoint on the raw statistic degenerates into a coincidence tester in
    the sparse regime and inherits the √n rate; the honest plug-in tester
    must first make the empirical distance itself meaningful, which costs
    q = Θ(n/ε²).)  The E14 ablation exhibits the resulting √n gap to the
    collision statistic.
    """

    def __init__(
        self,
        n: int,
        epsilon: float,
        q: Optional[int] = None,
    ):
        super().__init__(n, epsilon)
        if q is None:
            # The plug-in tester's natural budget is linear in n.
            q = max(2, int(math.ceil(3.0 * n / epsilon**2)))
        self.q = int(q)
        if self.q < 2:
            raise InvalidParameterError(f"q must be >= 2, got {self.q}")
        self.distance_threshold = epsilon / 2.0

    def _statistics(
        self, distribution: DiscreteDistribution, trials: int, rng: np.random.Generator
    ) -> np.ndarray:
        # One offset bincount builds every trial's histogram at once;
        # bit-identical to per-trial bincounts (same single upfront draw).
        samples = distribution.sample_matrix(trials, self.q, rng)
        offsets = np.arange(trials, dtype=np.int64)[:, np.newaxis] * self.n
        histograms = (
            np.bincount(
                (samples + offsets).ravel(), minlength=trials * self.n
            ).reshape(trials, self.n)
            / self.q
        )
        return np.abs(histograms - 1.0 / self.n).sum(axis=1)

    @property
    def elements_per_trial(self) -> int:
        # Sample row plus the materialised per-trial histogram.
        return self.q + self.n

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Single-tile kernel: empirical ℓ1 distances vs the ε/2 cut."""
        generator = ensure_rng(rng)
        return self._statistics(distribution, trials, generator) <= self.distance_threshold

    @property
    def resources(self) -> TesterResources:
        return TesterResources(num_players=1, samples_per_player=self.q, message_bits=0)
