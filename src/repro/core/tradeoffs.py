"""The asymmetric-cost model of Section 6.2.

Players run for a common time budget τ but sample at individual rates
``T_i``, collecting ``q_i = T_i · τ`` samples each.  The tester of [7]
achieves ``τ = O(√n / (ε² ‖T‖₂))`` and the paper proves this optimal
(assuming no player is too slow).  :class:`AsymmetricRateTester` realises
the upper bound with per-player calibrated collision bits and an additive
count referee; E9 sweeps rate profiles and checks the measured
``τ* ∝ 1/‖T‖₂`` law.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import RngLike
from .graphs import GraphStatisticPlayer, complete_graph, statistic_alarm_probabilities
from .players import ConstantPlayer
from .protocol import Player, ProtocolTester, SimultaneousProtocol
from .referees import WeightedCountRule
from .testers import TesterResources


def rate_profile_norm(rates: Sequence[float]) -> float:
    """‖T‖₂ = sqrt(T_1² + ... + T_k²) — the quantity governing τ*."""
    array = np.asarray(rates, dtype=np.float64)
    if array.ndim != 1 or array.size == 0:
        raise InvalidParameterError("rates must be a non-empty 1-d sequence")
    if np.any(array < 0):
        raise InvalidParameterError("rates must be non-negative")
    return float(np.linalg.norm(array))


def optimal_time_budget(n: int, epsilon: float, rates: Sequence[float], multiplier: float = 3.0) -> float:
    """The [7] upper bound τ = multiplier · √n / (ε² ‖T‖₂)."""
    norm = rate_profile_norm(rates)
    if norm == 0:
        raise InvalidParameterError("at least one player must have a positive rate")
    return multiplier * math.sqrt(n) / (epsilon**2 * norm)


class AsymmetricRateTester(ProtocolTester):
    """Uniformity testing with heterogeneous sampling rates.

    Player i draws ``q_i = round(rates[i] · tau)`` samples and sends the
    midpoint-threshold collision alarm bit (see
    :class:`~repro.core.testers.ThresholdRuleTester`); the referee compares
    the total alarm count against the midpoint between the summed alarm
    probabilities under U_n and under the worst-case ε-far proxy, both
    Monte-Carlo calibrated per distinct q_i.  Players whose ``q_i < 2`` can
    never alarm and contribute nothing — exactly the "too slow to matter"
    regime the paper's assumption ``q_i ≥ 1/(20ε²)`` excludes.
    """

    def __init__(
        self,
        n: int,
        epsilon: float,
        rates: Sequence[float],
        tau: float,
        calibration_rng: RngLike = 0,
        calibration_trials: int = 3000,
    ):
        super().__init__(n, epsilon)
        rate_arr = np.asarray(rates, dtype=np.float64)
        if rate_arr.ndim != 1 or rate_arr.size == 0:
            raise InvalidParameterError("rates must be a non-empty 1-d sequence")
        if np.any(rate_arr < 0):
            raise InvalidParameterError("rates must be non-negative")
        if tau <= 0:
            raise InvalidParameterError(f"tau must be > 0, got {tau}")
        self.rates = rate_arr
        self.tau = float(tau)
        self.sample_counts: List[int] = [
            max(0, int(round(rate * tau))) for rate in rate_arr
        ]
        if all(q < 2 for q in self.sample_counts):
            raise InvalidParameterError(
                "no player collects >= 2 samples; tau or rates too small"
            )

        probabilities_by_q = {}
        thresholds_by_q = {}
        # Deduplicate via sorted() so the per-q calibration consumes
        # ``calibration_rng`` in a fixed order regardless of set hashing.
        for q in sorted(set(self.sample_counts)):
            pairs = q * (q - 1) / 2.0
            threshold = pairs * (1.0 + epsilon**2 / 2.0) / n
            thresholds_by_q[q] = threshold
            if q < 2:
                probabilities_by_q[q] = (0.0, 0.0)
            else:
                probabilities_by_q[q] = statistic_alarm_probabilities(
                    complete_graph(q),
                    n,
                    epsilon,
                    threshold,
                    calibration_trials,
                    calibration_rng,
                )
        uniform_alarms = sum(probabilities_by_q[q][0] for q in self.sample_counts)
        far_alarms = sum(probabilities_by_q[q][1] for q in self.sample_counts)
        self.expected_uniform_alarms = uniform_alarms
        self.expected_far_alarms = far_alarms
        reject_cutoff = 0.5 * (uniform_alarms + far_alarms)

        k = rate_arr.size
        # q < 2 slots see no sample pairs, so the legacy collision bit was
        # identically 1 — ConstantPlayer(1) keeps that bit-exact; richer
        # slots go through the graph player (K_q, same responses).
        players = [
            Player(
                GraphStatisticPlayer(complete_graph(q), thresholds_by_q[q])
                if q >= 2
                else ConstantPlayer(1),
                q,
            )
            for q in self.sample_counts
        ]
        # Accept iff (# accept bits) > k - cutoff, i.e. (# alarms) < cutoff.
        referee = WeightedCountRule(np.ones(k), threshold=k - reject_cutoff + 1e-9)
        self._protocol = SimultaneousProtocol(players, referee)

    @property
    def resources(self) -> TesterResources:
        # samples_per_player is not meaningful here; report the maximum.
        return TesterResources(
            num_players=len(self.sample_counts),
            samples_per_player=max(self.sample_counts),
            message_bits=1,
        )

    @property
    def total_samples(self) -> int:
        """Exact total samples across the heterogeneous network."""
        return int(sum(self.sample_counts))
