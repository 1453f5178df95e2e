"""Tests for the distributed learning protocols (Theorem 1.4's counterpart)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FrequencyDitheringLearner, HitCountingLearner
from repro.distributions import (
    PaninskiFamily,
    point_mass,
    two_level_distribution,
    uniform,
)
from repro.exceptions import InvalidParameterError


class TestHitCounting:
    def test_output_is_valid_distribution(self, rng):
        learner = HitCountingLearner(n=16, k=256, q=2)
        outcome = learner.learn(two_level_distribution(16, 0.5), rng)
        assert outcome.estimate.pmf.sum() == pytest.approx(1.0)
        assert outcome.estimate.n == 16

    def test_error_matches_l1(self, rng):
        from repro.distributions import l1_distance

        learner = HitCountingLearner(n=8, k=128, q=2)
        target = two_level_distribution(8, 0.4)
        outcome = learner.learn(target, rng)
        assert outcome.l1_error == pytest.approx(
            l1_distance(outcome.estimate, target)
        )

    def test_large_k_learns_well(self, rng):
        n = 16
        learner = HitCountingLearner(n=n, k=n * 600, q=2)
        target = PaninskiFamily(n, 0.6).sample_distribution(rng)
        outcome = learner.learn(target, rng)
        assert outcome.l1_error < 0.15

    def test_small_k_learns_poorly(self, rng):
        n = 16
        errors = [
            HitCountingLearner(n=n, k=n, q=1)
            .learn(two_level_distribution(n, 0.6), rng)
            .l1_error
            for _ in range(10)
        ]
        assert np.median(errors) > 0.2

    def test_error_decreases_with_k(self, rng):
        n, q = 16, 2
        target = two_level_distribution(n, 0.6)
        small = np.median(
            [HitCountingLearner(n, n * 8, q).learn(target, rng).l1_error for _ in range(9)]
        )
        large = np.median(
            [HitCountingLearner(n, n * 512, q).learn(target, rng).l1_error for _ in range(9)]
        )
        assert large < small

    def test_error_decreases_with_q(self, rng):
        n, k = 16, 16 * 32
        target = two_level_distribution(n, 0.6)
        q1 = np.median(
            [HitCountingLearner(n, k, 1).learn(target, rng).l1_error for _ in range(15)]
        )
        q16 = np.median(
            [HitCountingLearner(n, k, 16).learn(target, rng).l1_error for _ in range(15)]
        )
        assert q16 < q1

    def test_point_mass_learnable(self, rng):
        n = 8
        learner = HitCountingLearner(n=n, k=n * 400, q=4)
        outcome = learner.learn(point_mass(n, 3), rng)
        assert outcome.estimate.probability(3) > 0.8

    def test_domain_mismatch_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            HitCountingLearner(n=8, k=64, q=1).learn(uniform(16), rng)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            HitCountingLearner(n=0, k=4, q=1)
        with pytest.raises(InvalidParameterError):
            HitCountingLearner(n=4, k=0, q=1)
        with pytest.raises(InvalidParameterError):
            HitCountingLearner(n=4, k=4, q=0)

    def test_outcome_records_resources(self, rng):
        learner = HitCountingLearner(n=8, k=64, q=3)
        outcome = learner.learn(uniform(8), rng)
        assert outcome.num_players == 64
        assert outcome.samples_per_player == 3
        assert outcome.total_samples == 192

    def test_expected_error_scale(self):
        assert HitCountingLearner(16, 1024, 4).expected_error_scale() == pytest.approx(
            16 / np.sqrt(1024 * 4)
        )


class TestFrequencyDithering:
    def test_output_is_valid_distribution(self, rng):
        learner = FrequencyDitheringLearner(n=16, k=512, q=8)
        outcome = learner.learn(two_level_distribution(16, 0.5), rng)
        assert outcome.estimate.pmf.sum() == pytest.approx(1.0)

    def test_learns_near_uniform_targets(self, rng):
        n = 16
        target = two_level_distribution(n, 0.3)
        learner = FrequencyDitheringLearner(n=n, k=n * 1024, q=64, window_scale=4.0)
        errors = [learner.learn(target, rng).l1_error for _ in range(5)]
        assert np.median(errors) < 0.25

    def test_error_decreases_with_k(self, rng):
        n, q = 16, 16
        target = two_level_distribution(n, 0.4)
        small = np.median(
            [
                FrequencyDitheringLearner(n, n * 16, q).learn(target, rng).l1_error
                for _ in range(9)
            ]
        )
        large = np.median(
            [
                FrequencyDitheringLearner(n, n * 1024, q).learn(target, rng).l1_error
                for _ in range(9)
            ]
        )
        assert large < small

    def test_window_scale_validation(self):
        with pytest.raises(InvalidParameterError):
            FrequencyDitheringLearner(8, 64, 4, window_scale=0.0)


class TestLearningSuccessKernel:
    def test_acceptance_probability_tracks_learner_quality(self):
        from repro.core import LearningSuccessKernel

        target = two_level_distribution(16, 0.5)
        good = LearningSuccessKernel(HitCountingLearner(n=16, k=4096, q=2), delta=0.25)
        bad = LearningSuccessKernel(HitCountingLearner(n=16, k=16, q=2), delta=0.25)
        assert good.acceptance_probability(target, 80, rng=1) > 0.9
        assert bad.acceptance_probability(target, 80, rng=1) < 0.5

    def test_engine_determinism_across_tile_sizes(self):
        from repro.core import LearningSuccessKernel
        from repro.engine import engine_context, estimate_acceptance

        kernel = LearningSuccessKernel(HitCountingLearner(n=16, k=256, q=2), delta=0.3)
        target = uniform(16)
        baseline = estimate_acceptance(kernel, target, trials=100, rng=5)
        with engine_context(max_elements=64):
            tiny = estimate_acceptance(kernel, target, trials=100, rng=5)
        assert tiny.rate == baseline.rate

    def test_validation(self):
        from repro.core import LearningSuccessKernel

        with pytest.raises(InvalidParameterError):
            LearningSuccessKernel(HitCountingLearner(n=8, k=16, q=2), delta=0.0)
        with pytest.raises(InvalidParameterError):
            LearningSuccessKernel(object(), delta=0.1)

        class PerRunLearner:  # learn() only, no batched l1_errors_block
            def learn(self, distribution, rng):
                raise AssertionError("never called")

        with pytest.raises(InvalidParameterError):
            LearningSuccessKernel(PerRunLearner(), delta=0.1)
