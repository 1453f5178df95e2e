"""Tests for the closeness tester (uniformity's §1 generalisation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.closeness import ClosenessTester
from repro.exceptions import InvalidParameterError
from tests.oracles import closeness_statistic, poissonized_counts

N, EPS = 64, 0.5
U = repro.uniform(N)
FAR = repro.two_level_distribution(N, EPS)


class TestPoissonization:
    def test_counts_shape(self, rng):
        counts = poissonized_counts(U, 100.0, rng)
        assert counts.shape == (N,)
        assert (counts >= 0).all()

    def test_mean_matches_rate(self, rng):
        totals = [poissonized_counts(U, 500.0, rng).sum() for _ in range(200)]
        assert np.mean(totals) == pytest.approx(500.0, rel=0.05)

    def test_rejects_nonpositive_rate(self, rng):
        with pytest.raises(InvalidParameterError):
            poissonized_counts(U, 0.0, rng)


class TestStatistic:
    def test_zero_counts(self):
        assert closeness_statistic(np.zeros(4), np.zeros(4)) == 0.0

    def test_identical_counts_negative(self):
        # A = B: Z = Σ(-2A_v) < 0 — repeats on both sides cancel.
        counts = np.array([3.0, 1.0, 0.0])
        assert closeness_statistic(counts, counts) == -8.0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            closeness_statistic(np.zeros(3), np.zeros(4))

    def test_unbiasedness(self, rng):
        """E[Z] = q²·||p − r||₂² exactly under Poissonization."""
        q = 150
        expected = q * q * float(((FAR.pmf - U.pmf) ** 2).sum())
        samples = [
            closeness_statistic(
                poissonized_counts(FAR, q, rng), poissonized_counts(U, q, rng)
            )
            for _ in range(4000)
        ]
        assert np.mean(samples) == pytest.approx(expected, rel=0.15)

    def test_unbiasedness_null(self, rng):
        q = 150
        samples = [
            closeness_statistic(
                poissonized_counts(U, q, rng), poissonized_counts(U, q, rng)
            )
            for _ in range(4000)
        ]
        assert abs(np.mean(samples)) < 10.0


class TestTester:
    def test_accepts_equal_pairs(self):
        tester = ClosenessTester(N, EPS)
        assert tester.acceptance_probability(U, U, 150, rng=0) >= 0.7
        assert tester.acceptance_probability(FAR, FAR, 150, rng=1) >= 0.7

    def test_rejects_far_pairs(self):
        tester = ClosenessTester(N, EPS)
        assert tester.acceptance_probability(FAR, U, 150, rng=2) <= 0.3

    def test_symmetric_in_arguments(self):
        tester = ClosenessTester(N, EPS)
        ab = tester.acceptance_probability(FAR, U, 200, rng=3)
        ba = tester.acceptance_probability(U, FAR, 200, rng=4)
        assert ab == pytest.approx(ba, abs=0.12)

    def test_underpowered_fails(self):
        tester = ClosenessTester(N, EPS, q=8)
        assert tester.acceptance_probability(FAR, U, 150, rng=5) > 0.4

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ClosenessTester(1, 0.5)
        with pytest.raises(InvalidParameterError):
            ClosenessTester(8, 1.5)
        tester = ClosenessTester(N, EPS)
        with pytest.raises(InvalidParameterError):
            tester.acceptance_probability(repro.uniform(32), U, 10)

    def test_single_shot(self):
        tester = ClosenessTester(N, EPS)
        assert isinstance(tester.test(U, U, rng=0), bool)


class TestUniformitySpecialCase:
    def test_adapter_behaves_as_uniformity_tester(self):
        """§1's claim: fixing one side to U_n gives a uniformity tester."""
        adapter = ClosenessTester(N, EPS).as_uniformity_tester()
        assert adapter.acceptance_probability(U, 150, rng=0) >= 0.7
        assert adapter.acceptance_probability(FAR, 150, rng=1) <= 0.3

    def test_adapter_on_paninski_family(self):
        adapter = ClosenessTester(N, EPS).as_uniformity_tester()
        member = repro.PaninskiFamily(N, EPS).sample_distribution(9)
        assert adapter.acceptance_probability(member, 150, rng=2) <= 0.35


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    weights=st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=4, max_size=16),
)
@settings(max_examples=25, deadline=None)
def test_null_statistic_centered_property(seed, weights):
    """Property: for p = r the statistic is (approximately) centered."""
    from repro.distributions import DiscreteDistribution

    rng = np.random.default_rng(seed)
    dist = DiscreteDistribution(weights, normalize=True)
    q = 80
    values = [
        closeness_statistic(
            poissonized_counts(dist, q, rng), poissonized_counts(dist, q, rng)
        )
        for _ in range(300)
    ]
    standard_error = np.std(values) / np.sqrt(len(values)) + 1e-9
    assert abs(np.mean(values)) < 6 * standard_error + 1.0
