"""Multi-bit message protocols (the Theorem 6.4 regime).

Theorem 6.4 generalises the one-bit lower bound: with r-bit messages the
per-player sample complexity is Ω((1/ε²)·min(√(n/(2^r·k)), n/(2^r·k))) —
longer messages act like (up to) 2^r-fold more players.  The matching
upper-bound protocol implemented here quantises each player's collision
count into 2^r levels at uniform-distribution quantiles, and the referee
sums the quantised levels:

* with r = 1 this degenerates to the collision bit of
  :class:`~repro.core.testers.ThresholdRuleTester` (a median cut);
* as r grows the referee effectively sees the collision counts themselves,
  recovering the full statistical power of pooling all k·q samples.

Calibration reuses the exact hard-family equivalence (every ν_z shares its
collision-count law with the two-level proxy; see
:func:`~repro.core.graphs.worst_case_statistic_proxy`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..distributions.discrete import DiscreteDistribution, uniform
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng
from .graphs import complete_graph, worst_case_statistic_proxy
from .players import collision_counts
from .testers import TesterResources, UniformityTester, default_distributed_q


def quantile_boundaries(
    counts: np.ndarray, num_levels: int
) -> np.ndarray:
    """Level boundaries placing ~equal uniform mass in each message level.

    Returns ``num_levels - 1`` increasing cut points; a count c maps to
    level ``searchsorted(boundaries, c, side='right')``.
    """
    if num_levels < 2:
        raise InvalidParameterError(f"num_levels must be >= 2, got {num_levels}")
    quantiles = np.linspace(0.0, 1.0, num_levels + 1)[1:-1]
    return np.quantile(counts, quantiles, method="higher").astype(np.float64)


class MultibitThresholdTester(UniformityTester):
    """Uniformity tester with r-bit quantised collision messages.

    Parameters
    ----------
    n, epsilon, k:
        Universe size, proximity, number of players.
    message_bits:
        r — each player's message is its collision count quantised into
        2^r uniform-quantile levels.
    q:
        Samples per player; defaults to the one-bit optimum
        ``Θ(√(n/k)/ε²)`` (the point of the experiment is how much r lets
        q shrink below that).
    """

    #: v2: the cache token carries the quantile ``boundaries``, which the
    #: fingerprint (primitive attributes only) left out.
    kernel_version = 2

    #: Messages quantise collision counts, which see only equal samples.
    relabel_invariant = True

    def __init__(
        self,
        n: int,
        epsilon: float,
        k: int,
        message_bits: int = 2,
        q: Optional[int] = None,
        calibration_rng: RngLike = 0,
        calibration_trials: int = 3000,
    ):
        super().__init__(n, epsilon)
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        if message_bits < 1:
            raise InvalidParameterError(
                f"message_bits must be >= 1, got {message_bits}"
            )
        self.k = int(k)
        self.message_bits = int(message_bits)
        self.num_levels = 2**self.message_bits
        self.q = q if q is not None else default_distributed_q(n, k, epsilon)
        if self.q < 2:
            raise InvalidParameterError(f"q must be >= 2, got {self.q}")

        generator = ensure_rng(calibration_rng)
        uniform_counts = uniform(n).sample_statistic(
            calibration_trials, self.q, collision_counts, generator
        )
        # Degenerate quantiles (all counts equal) are legal: every message
        # is then the same level and the tester is uninformative but valid.
        self.boundaries = quantile_boundaries(uniform_counts, self.num_levels)
        far = worst_case_statistic_proxy(complete_graph(2), n, epsilon)
        far_counts = far.sample_statistic(
            calibration_trials, self.q, collision_counts, generator
        )
        uniform_levels = np.searchsorted(
            self.boundaries, uniform_counts, side="right"
        )
        far_levels = np.searchsorted(self.boundaries, far_counts, side="right")
        self._uniform_level_mean = float(uniform_levels.mean())
        self._far_level_mean = float(far_levels.mean())
        self.sum_threshold = (
            0.5 * self.k * (self._uniform_level_mean + self._far_level_mean)
        )

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Single-tile kernel: sample, quantise, sum levels, threshold."""
        generator = ensure_rng(rng)
        samples = distribution.sample_matrix(trials * self.k, self.q, generator)
        counts = collision_counts(samples)
        levels = np.searchsorted(self.boundaries, counts, side="right")
        sums = levels.reshape(trials, self.k).sum(axis=1)
        return sums <= self.sum_threshold

    @property
    def cache_token(self) -> Dict[str, Any]:
        return {**super().cache_token, "boundaries": self.boundaries.tolist()}

    @property
    def resources(self) -> TesterResources:
        return TesterResources(
            num_players=self.k,
            samples_per_player=self.q,
            message_bits=self.message_bits,
        )

    @property
    def calibration_gap(self) -> float:
        """Mean level shift between uniform and worst-case-far inputs."""
        return self._far_level_mean - self._uniform_level_mean
