"""Tests for the asymmetric sampling-rate model (Section 6.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AsymmetricRateTester, complete_graph
from repro.core.graphs import statistic_alarm_probabilities
from repro.core.tradeoffs import optimal_time_budget, rate_profile_norm
from repro.distributions import two_level_distribution
from repro.exceptions import InvalidParameterError

N, EPS = 256, 0.5
FAR = two_level_distribution(N, EPS)


class TestRateNorm:
    def test_uniform_profile(self):
        assert rate_profile_norm(np.ones(16)) == pytest.approx(4.0)

    def test_rejects_negative_rates(self):
        with pytest.raises(InvalidParameterError):
            rate_profile_norm([1.0, -1.0])

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            rate_profile_norm([])

    def test_optimal_time_budget_formula(self):
        tau = optimal_time_budget(400, 0.5, np.ones(4), multiplier=1.0)
        assert tau == pytest.approx(20 / (0.25 * 2.0))

    def test_optimal_time_budget_rejects_zero_norm(self):
        with pytest.raises(InvalidParameterError):
            optimal_time_budget(400, 0.5, np.zeros(4))


class TestAsymmetricTester:
    def test_symmetric_profile_works(self):
        rates = np.ones(16)
        tau = optimal_time_budget(N, EPS, rates)
        tester = AsymmetricRateTester(N, EPS, rates, tau)
        assert tester.completeness(200, rng=0) >= 0.65
        assert tester.soundness(FAR, 200, rng=1) >= 0.65

    def test_skewed_profile_works_at_same_norm_budget(self):
        rates = np.linspace(0.5, 2.0, 16)
        tau = optimal_time_budget(N, EPS, rates)
        tester = AsymmetricRateTester(N, EPS, rates, tau)
        assert tester.completeness(200, rng=2) >= 0.6
        assert tester.soundness(FAR, 200, rng=3) >= 0.6

    def test_sample_counts_follow_rates(self):
        rates = np.array([1.0, 2.0, 4.0])
        tester = AsymmetricRateTester(N, EPS, rates, tau=10.0)
        assert tester.sample_counts == [10, 20, 40]
        assert tester.total_samples == 70

    def test_slow_players_contribute_nothing(self):
        # One fast player carries the protocol; many crawling ones do not
        # break completeness.
        rates = np.concatenate([[8.0], 0.01 * np.ones(7)])
        tau = optimal_time_budget(N, EPS, rates)
        tester = AsymmetricRateTester(N, EPS, rates, tau)
        assert sum(q >= 2 for q in tester.sample_counts) == 1
        assert tester.completeness(200, rng=4) >= 0.6

    def test_rejects_all_slow(self):
        with pytest.raises(InvalidParameterError):
            AsymmetricRateTester(N, EPS, [0.01, 0.01], tau=10.0)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(InvalidParameterError):
            AsymmetricRateTester(N, EPS, [1.0], tau=0.0)

    def test_insufficient_tau_fails_soundness(self):
        rates = np.ones(16)
        tiny_tau = optimal_time_budget(N, EPS, rates) / 12.0
        tester = AsymmetricRateTester(N, EPS, rates, tiny_tau)
        assert tester.soundness(FAR, 200, rng=5) < 0.6

    def test_expected_alarm_accounting(self):
        rates = np.ones(8)
        tester = AsymmetricRateTester(N, EPS, rates, tau=48.0)
        assert tester.expected_far_alarms > tester.expected_uniform_alarms

    def test_calibration_is_per_q_graph_alarm_probabilities(self):
        """Each distinct q_i >= 2 is calibrated on K_{q_i} with the
        tester's own threshold and calibration seed; q_i < 2 slots add
        nothing."""
        rates = [1.0, 0.5, 0.01, 2.0, 1.0]
        tester = AsymmetricRateTester(N, EPS, rates, tau=24.0, calibration_trials=400)
        assert tester.sample_counts == [24, 12, 0, 48, 24]
        expected = {}
        for q in (12, 24, 48):
            threshold = q * (q - 1) / 2.0 * (1.0 + EPS**2 / 2.0) / N
            expected[q] = statistic_alarm_probabilities(
                complete_graph(q), N, EPS, threshold, 400, 0
            )
        counted = [q for q in tester.sample_counts if q >= 2]
        assert tester.expected_uniform_alarms == sum(expected[q][0] for q in counted)
        assert tester.expected_far_alarms == sum(expected[q][1] for q in counted)

    def test_calibration_values_are_pinned(self):
        """The alarm sums the removed collision-bit wrapper produced for
        this configuration; the graph-layer calibration must reproduce
        them bit for bit."""
        rates = [1.0, 0.5, 0.01, 2.0, 1.0]
        tester = AsymmetricRateTester(N, EPS, rates, tau=24.0, calibration_trials=400)
        assert tester.expected_uniform_alarms == 1.0650000000000002
        assert tester.expected_far_alarms == 1.6199999999999999
