"""Tests for the complete uniformity testers.

These are the integration tests of the upper-bound side: every tester must
be complete (accept U_n w.h.p.) and sound (reject ε-far inputs w.h.p.) at
its default resource levels, and must degrade gracefully when starved.
"""

from __future__ import annotations

import pytest

from repro.core import (
    AndRuleTester,
    CentralizedCollisionTester,
    PairwiseHashTester,
    SimulationTester,
    ThresholdRuleTester,
)
from repro.core.graphs import (
    complete_graph,
    statistic_alarm_probabilities,
    worst_case_statistic_proxy,
)
from repro.core.testers import (
    default_centralized_q,
    default_distributed_q,
    max_alarm_rate_for_threshold,
)
from repro.distributions import (
    PaninskiFamily,
    distance_to_uniform,
    two_level_distribution,
)
from repro.exceptions import InvalidParameterError

N, EPS = 256, 0.5
TRIALS = 250
FAR = two_level_distribution(N, EPS)


class TestDefaults:
    def test_default_centralized_q_scales(self):
        assert default_centralized_q(400, 0.5) == pytest.approx(
            3 * 20 / 0.25, abs=1
        )

    def test_default_distributed_q_shrinks_with_k(self):
        assert default_distributed_q(1024, 16, 0.5) < default_centralized_q(1024, 0.5)

    def test_max_alarm_rate_monotone_in_T(self):
        rates = [max_alarm_rate_for_threshold(30, t) for t in (1, 2, 4, 8)]
        assert rates == sorted(rates)

    def test_max_alarm_rate_t_above_k(self):
        assert max_alarm_rate_for_threshold(4, 5) == 1.0

    def test_worst_case_proxy_properties(self):
        proxy = worst_case_statistic_proxy(complete_graph(2), N, EPS)
        assert distance_to_uniform(proxy) == pytest.approx(EPS)
        assert proxy.l2_norm_squared() == pytest.approx((1 + EPS**2) / N)

    def test_collision_bit_probabilities_ordering(self):
        p0, p1 = statistic_alarm_probabilities(
            complete_graph(48), N, EPS, threshold=5.0, rng=0
        )
        assert 0.0 <= p0 < p1 <= 1.0


class TestCentralized:
    def test_completeness(self):
        tester = CentralizedCollisionTester(N, EPS)
        assert tester.completeness(TRIALS, rng=0) >= 0.7

    def test_soundness(self):
        tester = CentralizedCollisionTester(N, EPS)
        assert tester.soundness(FAR, TRIALS, rng=1) >= 0.7

    def test_soundness_on_paninski_family(self):
        tester = CentralizedCollisionTester(N, EPS)
        family = PaninskiFamily(N, EPS)
        member = family.sample_distribution(7)
        assert tester.soundness(member, TRIALS, rng=2) >= 0.7

    def test_underpowered_fails(self):
        tester = CentralizedCollisionTester(N, EPS, q=4)
        assert tester.soundness(FAR, TRIALS, rng=3) < 0.6

    def test_resources(self):
        tester = CentralizedCollisionTester(N, EPS, q=100)
        assert tester.resources.num_players == 1
        assert tester.resources.samples_per_player == 100
        assert tester.resources.total_samples == 100

    def test_rejects_tiny_q(self):
        with pytest.raises(InvalidParameterError):
            CentralizedCollisionTester(N, EPS, q=1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InvalidParameterError):
            CentralizedCollisionTester(N, 0.0)

    def test_worst_case_success(self):
        tester = CentralizedCollisionTester(N, EPS)
        assert tester.worst_case_success(150, rng=4, num_family_members=2) >= 0.6


class TestThresholdRule:
    def test_completeness_and_soundness(self):
        tester = ThresholdRuleTester(N, EPS, k=16)
        assert tester.completeness(TRIALS, rng=0) >= 0.7
        assert tester.soundness(FAR, TRIALS, rng=1) >= 0.7

    def test_paninski_soundness(self):
        tester = ThresholdRuleTester(N, EPS, k=16)
        member = PaninskiFamily(N, EPS).sample_distribution(11)
        assert tester.soundness(member, TRIALS, rng=2) >= 0.7

    def test_uses_fewer_samples_per_player_than_centralized(self):
        distributed = ThresholdRuleTester(N, EPS, k=16)
        centralized = CentralizedCollisionTester(N, EPS)
        assert distributed.q < centralized.q

    def test_underpowered_fails(self):
        tester = ThresholdRuleTester(N, EPS, k=16, q=3)
        assert tester.soundness(FAR, TRIALS, rng=3) < 0.6

    def test_forced_T_constructs_dithered_protocol(self):
        tester = ThresholdRuleTester(N, EPS, k=16, q=64, forced_T=2)
        assert tester.reject_threshold == 2
        # completeness must hold by calibration
        assert tester.completeness(TRIALS, rng=4) >= 0.6

    def test_forced_T_validation(self):
        with pytest.raises(InvalidParameterError):
            ThresholdRuleTester(N, EPS, k=16, forced_T=0)

    def test_resources(self):
        tester = ThresholdRuleTester(N, EPS, k=8, q=32)
        assert tester.resources.num_players == 8
        assert tester.resources.samples_per_player == 32
        assert tester.resources.message_bits == 1

    def test_protocol_exposed(self):
        tester = ThresholdRuleTester(N, EPS, k=8)
        assert tester.protocol.num_players == 8


class TestAndRule:
    def test_completeness_by_calibration(self):
        tester = AndRuleTester(N, EPS, k=16)
        assert tester.completeness(TRIALS, rng=0) >= 0.6

    def test_soundness_at_default_q(self):
        tester = AndRuleTester(N, EPS, k=16)
        assert tester.soundness(FAR, TRIALS, rng=1) >= 0.6

    def test_player_bias_grows_with_k(self):
        small_k = AndRuleTester(N, EPS, k=2)
        large_k = AndRuleTester(N, EPS, k=64)
        assert (
            large_k.player_collision_threshold >= small_k.player_collision_threshold
        )

    def test_player_false_alarm_rate_within_budget(self):
        k = 16
        tester = AndRuleTester(N, EPS, k=k)
        assert tester.player_reject_probability <= 1.0 / (3 * k) + 0.01


class TestSingleSample:
    def test_pairwise_hash_accepts_uniform(self):
        tester = PairwiseHashTester(64, 0.6, k=4096, message_bits=2)
        assert tester.completeness(80, rng=0) >= 0.6

    def test_pairwise_hash_rejects_far_at_scale(self):
        tester = PairwiseHashTester(32, 0.6, k=8192, message_bits=2)
        far = two_level_distribution(32, 0.6)
        assert tester.soundness(far, 80, rng=1) >= 0.6

    def test_pairwise_hash_resources(self):
        tester = PairwiseHashTester(64, 0.5, k=128, message_bits=3)
        assert tester.resources.samples_per_player == 1
        assert tester.resources.message_bits == 3

    def test_pairwise_hash_validation(self):
        with pytest.raises(InvalidParameterError):
            PairwiseHashTester(64, 0.5, k=1)
        with pytest.raises(InvalidParameterError):
            PairwiseHashTester(64, 0.5, k=64, message_bits=0)

    def test_simulation_tester_accepts_uniform(self):
        tester = SimulationTester(64, 0.5, k=6400)
        assert tester.completeness(60, rng=0) >= 0.7

    def test_simulation_tester_rejects_far(self):
        far = two_level_distribution(64, 0.5)
        tester = SimulationTester(64, 0.5, k=64 * 200)
        assert tester.soundness(far, 60, rng=1) >= 0.6

    def test_simulation_tester_starved_accepts_everything(self):
        """With k << n there are no hits, so the referee can't reject."""
        far = two_level_distribution(64, 0.5)
        tester = SimulationTester(64, 0.5, k=8)
        assert tester.soundness(far, 100, rng=2) <= 0.2


class TestBudgetMonotonicity:
    """Success should (statistically) improve with more resources."""

    def test_centralized_success_grows_with_q(self):
        weak = CentralizedCollisionTester(N, EPS, q=8)
        strong = CentralizedCollisionTester(N, EPS, q=400)
        assert strong.soundness(FAR, TRIALS, rng=0) > weak.soundness(
            FAR, TRIALS, rng=0
        )

    def test_threshold_success_grows_with_k(self):
        weak = ThresholdRuleTester(N, EPS, k=2, q=24)
        strong = ThresholdRuleTester(N, EPS, k=32, q=24)
        weak_success = min(
            weak.completeness(TRIALS, rng=1), weak.soundness(FAR, TRIALS, rng=2)
        )
        strong_success = min(
            strong.completeness(TRIALS, rng=3), strong.soundness(FAR, TRIALS, rng=4)
        )
        assert strong_success > weak_success
