"""Tests for distances and divergences."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    DiscreteDistribution,
    chi_squared_divergence,
    distance_to_uniform,
    is_epsilon_far_from_uniform,
    jensen_shannon_divergence,
    kl_divergence,
    l1_distance,
    l2_distance,
    point_mass,
    total_variation,
    uniform,
)
from repro.distributions.distances import (
    bernoulli_kl,
    bernoulli_kl_chi2_bound,
    hellinger_distance,
)
from repro.exceptions import DimensionMismatchError, InvalidParameterError

pmf_strategy = st.lists(
    st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=24
).map(lambda w: DiscreteDistribution(w, normalize=True))


class TestL1:
    def test_identical_distance_zero(self):
        assert l1_distance(uniform(8), uniform(8)) == 0.0

    def test_disjoint_point_masses(self):
        assert l1_distance(point_mass(4, 0), point_mass(4, 1)) == pytest.approx(2.0)

    def test_accepts_raw_arrays(self):
        assert l1_distance([0.5, 0.5], [1.0, 0.0]) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            l1_distance(uniform(3), uniform(4))

    def test_tv_is_half_l1(self):
        p, q = point_mass(4, 0), uniform(4)
        assert total_variation(p, q) == pytest.approx(l1_distance(p, q) / 2)


class TestKL:
    def test_self_divergence_zero(self):
        assert kl_divergence(uniform(8), uniform(8)) == 0.0

    def test_against_uniform(self):
        # D(point || uniform) = log2(n)
        assert kl_divergence(point_mass(8, 0), uniform(8)) == pytest.approx(3.0)

    def test_infinite_off_support(self):
        assert math.isinf(kl_divergence(point_mass(4, 0), point_mass(4, 1)))

    def test_asymmetry(self):
        p = DiscreteDistribution([0.9, 0.1])
        q = DiscreteDistribution([0.5, 0.5])
        assert kl_divergence(p, q) != kl_divergence(q, p)

    def test_chi2_zero_for_identical(self):
        assert chi_squared_divergence(uniform(8), uniform(8)) == 0.0

    def test_chi2_infinite_off_support(self):
        assert math.isinf(chi_squared_divergence(point_mass(4, 0), point_mass(4, 1)))

    def test_js_symmetric_and_bounded(self):
        p, q = point_mass(4, 0), point_mass(4, 1)
        assert jensen_shannon_divergence(p, q) == pytest.approx(
            jensen_shannon_divergence(q, p)
        )
        assert jensen_shannon_divergence(p, q) <= 1.0 + 1e-12


class TestBernoulli:
    def test_bernoulli_kl_zero_at_equal(self):
        assert bernoulli_kl(0.3, 0.3) == pytest.approx(0.0)

    def test_bernoulli_kl_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            bernoulli_kl(1.2, 0.5)

    def test_chi2_bound_degenerate(self):
        assert bernoulli_kl_chi2_bound(0.5, 0.5) == pytest.approx(0.0)
        assert math.isinf(bernoulli_kl_chi2_bound(0.5, 1.0))
        assert bernoulli_kl_chi2_bound(1.0, 1.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("beta", [0.1, 0.4, 0.6, 0.95])
    def test_fact_6_3_holds_on_grid(self, alpha, beta):
        """Fact 6.3: D(B(α)||B(β)) <= (α-β)²/(var(B(β))·ln2)."""
        assert bernoulli_kl(alpha, beta) <= bernoulli_kl_chi2_bound(alpha, beta) + 1e-12


class TestFarness:
    def test_uniform_distance_zero(self):
        assert distance_to_uniform(uniform(16)) == pytest.approx(0.0)

    def test_epsilon_far_predicate(self):
        from repro.distributions import two_level_distribution

        dist = two_level_distribution(16, 0.5)
        assert is_epsilon_far_from_uniform(dist, 0.5)
        assert not is_epsilon_far_from_uniform(dist, 0.51)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(InvalidParameterError):
            is_epsilon_far_from_uniform(uniform(4), -0.1)


@given(p=pmf_strategy)
@settings(max_examples=50, deadline=None)
def test_metric_identities(p):
    """Every metric vanishes at p = p."""
    assert l1_distance(p, p) == 0.0
    assert l2_distance(p, p) == 0.0
    assert hellinger_distance(p, p) == pytest.approx(0.0, abs=1e-7)
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


@given(
    weights_p=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=4, max_size=4),
    weights_q=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=4, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_pinsker_inequality(weights_p, weights_q):
    """TV(p,q)² ≤ (ln2/2)·D(p||q) — a standard sanity relation."""
    p = DiscreteDistribution(weights_p, normalize=True)
    q = DiscreteDistribution(weights_q, normalize=True)
    tv = total_variation(p, q)
    kl_nats = kl_divergence(p, q) * math.log(2.0)
    assert tv**2 <= kl_nats / 2.0 + 1e-9


@given(
    weights_p=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=5, max_size=5),
    weights_q=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=5, max_size=5),
)
@settings(max_examples=50, deadline=None)
def test_kl_bounded_by_chi2(weights_p, weights_q):
    """D(p||q) ≤ χ²(p||q)/ln2 (bits) — the comparison behind Fact 6.3."""
    p = DiscreteDistribution(weights_p, normalize=True)
    q = DiscreteDistribution(weights_q, normalize=True)
    assert kl_divergence(p, q) <= chi_squared_divergence(p, q) / math.log(2.0) + 1e-9
