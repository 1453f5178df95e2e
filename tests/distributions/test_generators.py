"""Tests for the far-from-uniform workload generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    bimodal_distribution,
    distance_to_uniform,
    far_from_uniform_suite,
    sparse_support_distribution,
    two_level_distribution,
    zipf_distribution,
)
from repro.distributions.generators import _zipf_at_farness, dirichlet_distribution
from repro.exceptions import InvalidParameterError


class TestZipf:
    def test_exponent_zero_is_uniform(self):
        assert np.allclose(zipf_distribution(16, 0.0).pmf, 1.0 / 16)

    def test_monotone_decreasing_pmf(self):
        dist = zipf_distribution(16, 1.0)
        assert (np.diff(dist.pmf) <= 1e-15).all()

    def test_farness_increases_with_exponent(self):
        distances = [
            distance_to_uniform(zipf_distribution(64, a)) for a in (0.2, 0.6, 1.2)
        ]
        assert distances == sorted(distances)

    def test_rejects_negative_exponent(self):
        with pytest.raises(InvalidParameterError):
            zipf_distribution(8, -0.5)

    def test_zipf_at_farness_hits_target(self):
        dist = _zipf_at_farness(64, 0.4)
        assert distance_to_uniform(dist) >= 0.4 - 1e-6
        assert distance_to_uniform(dist) <= 0.45


class TestTwoLevel:
    def test_exact_farness(self):
        for eps in (0.1, 0.3, 0.7):
            dist = two_level_distribution(32, eps)
            assert distance_to_uniform(dist) == pytest.approx(eps)

    def test_matches_paninski_l2_norm(self):
        dist = two_level_distribution(32, 0.5)
        assert dist.l2_norm_squared() == pytest.approx((1 + 0.25) / 32)

    def test_rejects_odd_n(self):
        with pytest.raises(InvalidParameterError):
            two_level_distribution(7, 0.5)


class TestSparse:
    def test_full_support_is_uniform(self):
        assert np.allclose(sparse_support_distribution(16, 1.0).pmf, 1.0 / 16)

    def test_farness_formula(self):
        dist = sparse_support_distribution(100, 0.5)
        assert distance_to_uniform(dist) == pytest.approx(1.0)

    def test_support_size(self):
        dist = sparse_support_distribution(100, 0.25)
        assert len(dist.support()) == 25

    def test_rejects_zero_fraction(self):
        with pytest.raises(InvalidParameterError):
            sparse_support_distribution(8, 0.0)


class TestBimodal:
    def test_farness(self):
        dist = bimodal_distribution(64, 0.5, heavy_elements=1)
        assert distance_to_uniform(dist) == pytest.approx(0.5)

    def test_heavy_element_is_heavier(self):
        dist = bimodal_distribution(64, 0.5, heavy_elements=1)
        assert dist.probability(0) > dist.probability(1)

    def test_rejects_epsilon_causing_negative_mass(self):
        # One heavy element cannot absorb eps/2 = 0.45 extra while the rest
        # stay non-negative at n=2: light element has 1/2 - 0.45 > 0, so use
        # a crafted failing case instead: many heavies, tiny light pool.
        with pytest.raises(InvalidParameterError):
            bimodal_distribution(4, 0.8, heavy_elements=3)


class TestDirichlet:
    def test_valid_distribution(self, rng):
        dist = dirichlet_distribution(16, 1.0, rng)
        assert dist.pmf.sum() == pytest.approx(1.0)

    def test_small_concentration_far_from_uniform(self, rng):
        spiky = dirichlet_distribution(32, 0.05, rng)
        smooth = dirichlet_distribution(32, 100.0, rng)
        assert distance_to_uniform(spiky) > distance_to_uniform(smooth)


class TestSuite:
    def test_all_members_certified_far(self, rng):
        suite = far_from_uniform_suite(64, 0.4, rng)
        assert set(suite) >= {"two_level", "bimodal_1", "sparse", "zipf", "paninski"}
        for dist in suite.values():
            assert distance_to_uniform(dist) >= 0.4 - 1e-6

    def test_rejects_odd_n(self):
        with pytest.raises(InvalidParameterError):
            far_from_uniform_suite(7, 0.4)


@given(
    n_half=st.integers(min_value=2, max_value=64),
    eps=st.floats(min_value=0.05, max_value=0.9),
)
@settings(max_examples=50, deadline=None)
def test_two_level_farness_property(n_half, eps):
    dist = two_level_distribution(2 * n_half, eps)
    assert distance_to_uniform(dist) == pytest.approx(eps)
