"""Tests for the r-bit quantised-collision tester (Theorem 6.4 regime)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import collision_counts, complete_graph, worst_case_statistic_proxy
from repro.core.multibit import MultibitThresholdTester, quantile_boundaries
from repro.exceptions import InvalidParameterError

N, EPS, K = 256, 0.5, 16
FAR = repro.two_level_distribution(N, EPS)


class TestQuantileBoundaries:
    def test_count_and_monotonicity(self, rng):
        counts = rng.poisson(5.0, size=4000)
        boundaries = quantile_boundaries(counts, 8)
        assert boundaries.shape == (7,)
        assert (np.diff(boundaries) >= 0).all()

    def test_levels_roughly_balanced(self, rng):
        counts = rng.poisson(8.0, size=8000)
        boundaries = quantile_boundaries(counts, 4)
        levels = np.searchsorted(boundaries, counts, side="right")
        fractions = np.bincount(levels, minlength=4) / counts.size
        assert fractions.max() < 0.6

    def test_rejects_single_level(self):
        with pytest.raises(InvalidParameterError):
            quantile_boundaries(np.arange(10), 1)


class TestMultibitTester:
    def test_completeness_and_soundness(self):
        tester = MultibitThresholdTester(N, EPS, K, message_bits=2)
        assert tester.completeness(200, rng=0) >= 0.7
        assert tester.soundness(FAR, 200, rng=1) >= 0.7

    def test_resources_report_bits(self):
        tester = MultibitThresholdTester(N, EPS, K, message_bits=3, q=24)
        assert tester.resources.message_bits == 3
        assert tester.resources.samples_per_player == 24

    def test_one_bit_is_median_cut(self):
        tester = MultibitThresholdTester(N, EPS, K, message_bits=1)
        assert tester.num_levels == 2
        assert tester.boundaries.shape == (1,)

    def test_more_bits_do_not_hurt_at_fixed_q(self):
        """At a q where 1-bit messages struggle, 4-bit ones should not be
        (statistically) worse."""
        q = 20
        one = MultibitThresholdTester(N, EPS, K, message_bits=1, q=q)
        four = MultibitThresholdTester(N, EPS, K, message_bits=4, q=q)
        far_success_one = one.soundness(FAR, 300, rng=2)
        far_success_four = four.soundness(FAR, 300, rng=3)
        assert far_success_four >= far_success_one - 0.1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MultibitThresholdTester(N, EPS, K, message_bits=0)
        with pytest.raises(InvalidParameterError):
            MultibitThresholdTester(N, EPS, 0)
        with pytest.raises(InvalidParameterError):
            MultibitThresholdTester(N, EPS, K, q=1)

    def test_underpowered_fails(self):
        tester = MultibitThresholdTester(N, EPS, K, message_bits=2, q=3)
        assert tester.soundness(FAR, 200, rng=4) < 0.65

    def test_calibration_is_two_vertex_graph_proxy(self):
        """Inline transcription of the calibration: uniform counts set the
        quantile boundaries, then the far counts come from the K_2 proxy,
        both on one generator seeded by ``calibration_rng``."""
        q, trials = 20, 400
        tester = MultibitThresholdTester(
            N, EPS, K, message_bits=2, q=q, calibration_trials=trials
        )
        generator = np.random.default_rng(0)
        uniform_counts = collision_counts(
            repro.uniform(N).sample_matrix(trials, q, generator)
        )
        boundaries = quantile_boundaries(uniform_counts, 4)
        far = worst_case_statistic_proxy(complete_graph(2), N, EPS)
        far_counts = collision_counts(far.sample_matrix(trials, q, generator))
        uniform_mean = np.searchsorted(boundaries, uniform_counts, side="right").mean()
        far_mean = np.searchsorted(boundaries, far_counts, side="right").mean()
        assert np.array_equal(tester.boundaries, boundaries)
        assert tester.sum_threshold == 0.5 * K * (float(uniform_mean) + float(far_mean))

    def test_calibration_values_are_pinned(self):
        """The levels the removed collision proxy produced for this
        configuration; the graph-layer proxy must reproduce them exactly."""
        tester = MultibitThresholdTester(
            N, EPS, K, message_bits=2, q=20, calibration_trials=400
        )
        assert tester.boundaries.tolist() == [0.0, 0.0, 1.0]
        assert (tester._uniform_level_mean, tester._far_level_mean) == (2.4925, 2.61)
        assert tester.sum_threshold == 40.82
