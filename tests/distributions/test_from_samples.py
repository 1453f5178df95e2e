"""Tests for the empirical-distribution constructor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import DiscreteDistribution, l1_distance
from repro.exceptions import InvalidParameterError


class TestFromSamples:
    def test_exact_frequencies(self):
        dist = DiscreteDistribution.from_samples([0, 0, 1, 2], domain_size=4)
        assert dist.pmf.tolist() == pytest.approx([0.5, 0.25, 0.25, 0.0])

    def test_smoothing_gives_full_support(self):
        dist = DiscreteDistribution.from_samples([0], domain_size=3, smoothing=1.0)
        assert (dist.pmf > 0).all()
        assert dist.probability(0) == pytest.approx(0.5)

    def test_zero_samples_need_smoothing(self):
        with pytest.raises(InvalidParameterError):
            DiscreteDistribution.from_samples([], domain_size=3)
        smoothed = DiscreteDistribution.from_samples([], domain_size=3, smoothing=1.0)
        assert smoothed.is_uniform()

    def test_out_of_domain_rejected(self):
        with pytest.raises(InvalidParameterError):
            DiscreteDistribution.from_samples([5], domain_size=4)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DiscreteDistribution.from_samples([0], domain_size=0)
        with pytest.raises(InvalidParameterError):
            DiscreteDistribution.from_samples([0], domain_size=2, smoothing=-1.0)

    def test_consistency(self, rng):
        """The empirical distribution converges to the truth."""
        truth = DiscreteDistribution([0.5, 0.3, 0.2])
        empirical = DiscreteDistribution.from_samples(
            truth.sample(50_000, rng), domain_size=3
        )
        assert l1_distance(empirical, truth) < 0.02


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=32),
    count=st.integers(min_value=1, max_value=500),
)
@settings(max_examples=40, deadline=None)
def test_from_samples_always_valid(seed, n, count):
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, n, size=count)
    dist = DiscreteDistribution.from_samples(samples, domain_size=n)
    assert dist.pmf.sum() == pytest.approx(1.0)
    assert dist.n == n
