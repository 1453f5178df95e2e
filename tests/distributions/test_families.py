"""Tests for the Paninski hard family ν_z (Section 3 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    PaninskiFamily,
    distance_to_uniform,
    perturbed_pair_distribution,
    uniform,
)
from repro.distributions.families import decode_pair, encode_pair
from repro.exceptions import InvalidParameterError


class TestEncoding:
    def test_round_trip(self):
        for half in (2, 4, 8):
            for x in range(half):
                for s in (-1, 1):
                    assert decode_pair(encode_pair(x, s, half), half) == (x, s)

    def test_plus_one_is_even_slot(self):
        assert encode_pair(3, 1, 8) == 6
        assert encode_pair(3, -1, 8) == 7

    def test_rejects_bad_sign(self):
        with pytest.raises(InvalidParameterError):
            encode_pair(0, 0, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            encode_pair(4, 1, 4)
        with pytest.raises(InvalidParameterError):
            decode_pair(8, 4)


class TestPerturbedPair:
    def test_pmf_formula(self):
        dist = perturbed_pair_distribution([1, -1], epsilon=0.5)
        n = 4
        # z=+1 pair: (x=0,s=+1) gets (1+0.5)/4, (x=0,s=-1) gets (1-0.5)/4
        assert dist.probability(0) == pytest.approx(1.5 / n)
        assert dist.probability(1) == pytest.approx(0.5 / n)
        # z=-1 pair: signs flipped
        assert dist.probability(2) == pytest.approx(0.5 / n)
        assert dist.probability(3) == pytest.approx(1.5 / n)

    def test_rejects_non_sign_entries(self):
        with pytest.raises(InvalidParameterError):
            perturbed_pair_distribution([1, 0], 0.5)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InvalidParameterError):
            perturbed_pair_distribution([1, -1], 1.0)


class TestFamily:
    def test_requires_even_n(self):
        with pytest.raises(InvalidParameterError):
            PaninskiFamily(7, 0.5)

    def test_family_size(self, small_family):
        assert small_family.family_size == 16

    def test_every_member_exactly_epsilon_far(self, small_family):
        for member in small_family.all_members():
            assert distance_to_uniform(member) == pytest.approx(
                small_family.epsilon
            )

    def test_every_member_has_minimum_l2_norm(self, small_family):
        """||ν_z||₂² = (1+ε²)/n — the least detectable ε-far value."""
        n, eps = small_family.n, small_family.epsilon
        for member in small_family.all_members():
            assert member.l2_norm_squared() == pytest.approx((1 + eps**2) / n)

    def test_single_sample_mixture_is_uniform(self, small_family):
        """E_z[ν_z] = U_n — one sample carries no signal (Section 3)."""
        accumulated = np.zeros(small_family.n)
        for member in small_family.all_members():
            accumulated += member.pmf
        accumulated /= small_family.family_size
        assert np.allclose(accumulated, 1.0 / small_family.n)
        assert small_family.single_sample_mixture() == uniform(small_family.n)

    def test_q_sample_mixture_differs_from_uniform(self, small_family):
        """With q >= 2 samples the mixture is NOT uniform: collisions leak."""
        mixture = small_family.q_sample_mixture_pmf(2)
        assert mixture.sum() == pytest.approx(1.0)
        flat = 1.0 / small_family.n**2
        assert not np.allclose(mixture, flat)
        # The deviation lives exactly on "same pair index" sample pairs.
        n, half = small_family.n, small_family.half
        for e1 in range(n):
            for e2 in range(n):
                index = e1 * n + e2
                if e1 // 2 == e2 // 2:
                    assert abs(mixture[index] - flat) > 1e-12
                else:
                    assert mixture[index] == pytest.approx(flat)

    def test_z_from_index_bijection(self, small_family):
        seen = set()
        for index in range(small_family.family_size):
            seen.add(tuple(small_family.z_from_index(index).tolist()))
        assert len(seen) == small_family.family_size

    def test_random_z_shape_and_values(self, small_family, rng):
        z = small_family.random_z(rng)
        assert z.shape == (small_family.half,)
        assert set(np.unique(z)).issubset({-1, 1})

    def test_all_z_refuses_huge_enumeration(self):
        family = PaninskiFamily(64, 0.5)
        with pytest.raises(InvalidParameterError):
            list(family.all_z())

    def test_epsilon_zero_gives_uniform(self):
        family = PaninskiFamily(8, 0.0)
        member = family.sample_distribution(0)
        assert member.is_uniform()


@given(
    half=st.integers(min_value=1, max_value=6),
    epsilon=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=50, deadline=None)
def test_random_member_is_exactly_epsilon_far(half, epsilon, seed):
    """Property: every ν_z is exactly ε-far from uniform in ℓ1."""
    family = PaninskiFamily(2 * half, epsilon)
    member = family.sample_distribution(seed)
    assert distance_to_uniform(member) == pytest.approx(epsilon)


@given(
    half=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_negating_z_mirrors_the_distribution(half, seed):
    """ν_{-z}(x, s) = ν_z(x, -s): the two halves of each pair swap."""
    family = PaninskiFamily(2 * half, 0.4)
    z = family.random_z(seed)
    member = family.distribution(z)
    mirrored = family.distribution(-z)
    swapped = member.pmf.reshape(-1, 2)[:, ::-1].ravel()
    assert np.allclose(mirrored.pmf, swapped)
