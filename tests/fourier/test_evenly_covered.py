"""Tests for the evenly-covered combinatorics (Claim 3.1, Prop 5.2, Lemma 5.5)."""

from __future__ import annotations

from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.fourier.evenly_covered import (
    a_r,
    a_r_expectation_bound,
    a_r_expectation_exact,
    a_r_moment_exact,
    a_r_moment_monte_carlo,
    count_evenly_covered_x,
    double_factorial,
    evenly_covered_tuple_count,
    is_evenly_covered,
    lemma_5_5_bound,
    x_s_upper_bound,
)


class TestDoubleFactorial:
    def test_values(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(1) == 1
        assert double_factorial(5) == 15
        assert double_factorial(6) == 48
        assert double_factorial(7) == 105

    def test_rejects_below_minus_one(self):
        with pytest.raises(InvalidParameterError):
            double_factorial(-2)


class TestIsEvenlyCovered:
    def test_empty_subset_trivially_covered(self):
        assert is_evenly_covered([0, 1, 2], 0)

    def test_pair_same_value(self):
        assert is_evenly_covered([5, 5], 0b11)

    def test_pair_different_values(self):
        assert not is_evenly_covered([5, 6], 0b11)

    def test_singleton_never_covered(self):
        assert not is_evenly_covered([3], 0b1)

    def test_four_with_two_pairs(self):
        assert is_evenly_covered([1, 2, 2, 1], 0b1111)

    def test_partial_mask(self):
        # positions {0, 3} hold values 1, 1 → covered
        assert is_evenly_covered([1, 2, 3, 1], 0b1001)

    def test_rejects_bad_mask(self):
        with pytest.raises(InvalidParameterError):
            is_evenly_covered([1, 2], 0b100)


class TestTupleCount:
    def test_base_cases(self):
        assert evenly_covered_tuple_count(0, 5) == 1
        assert evenly_covered_tuple_count(3, 4) == 0  # odd length
        assert evenly_covered_tuple_count(2, 4) == 4  # both equal: h ways
        assert evenly_covered_tuple_count(2, 0) == 0

    def test_length_four(self):
        # E(4, h) = h (all same) + 3·h·(h-1) (two distinct pairs over 3 pairings)
        for h in (2, 3, 5):
            assert evenly_covered_tuple_count(4, h) == h + 3 * h * (h - 1)

    @pytest.mark.parametrize("h", [2, 3])
    @pytest.mark.parametrize("t", [2, 4, 6])
    def test_matches_brute_force(self, t, h):
        brute = sum(
            1
            for tup in iter_product(range(h), repeat=t)
            if all(tup.count(v) % 2 == 0 for v in set(tup))
        )
        assert evenly_covered_tuple_count(t, h) == brute


class TestXSCount:
    @pytest.mark.parametrize("half", [2, 3])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_matches_brute_force(self, q, half):
        for size in range(q + 1):
            mask = (1 << size) - 1  # first `size` positions
            brute = sum(
                1
                for x in iter_product(range(half), repeat=q)
                if is_evenly_covered(x, mask)
            )
            assert count_evenly_covered_x(q, size, half) == brute

    def test_prop_5_2_odd_sizes_vanish(self):
        for size in (1, 3, 5):
            assert count_evenly_covered_x(6, size, 4) == 0

    def test_prop_5_2_upper_bound(self):
        """|X_S| <= (|S|-1)!!·(n/2)^(q-|S|/2) for every (q, |S|, half)."""
        for half in (2, 3, 4, 8):
            for q in range(2, 7):
                for size in range(0, q + 1, 2):
                    assert count_evenly_covered_x(q, size, half) <= x_s_upper_bound(
                        q, size, half
                    ) + 1e-9


class TestAr:
    def test_a_r_counts_subsets(self):
        # x = (a, a, b): only S = {0,1} of size 2 is covered.
        assert a_r([7, 7, 3], 1) == 1
        # x = (a, a, a): subsets {0,1}, {0,2}, {1,2} all covered.
        assert a_r([7, 7, 7], 1) == 3

    def test_a_r_zero_when_too_large(self):
        assert a_r([1, 2], 2) == 0

    def test_expectation_exact_matches_enumeration(self):
        for half in (2, 3):
            for q in (2, 3, 4):
                for r in (1, 2):
                    if 2 * r > q:
                        continue
                    brute = np.mean(
                        [
                            a_r(x, r)
                            for x in iter_product(range(half), repeat=q)
                        ]
                    )
                    assert a_r_expectation_exact(q, r, half) == pytest.approx(brute)

    def test_expectation_bound(self):
        """The Section 5.1 moment estimate: E[a_r] <= (q²/n)^r."""
        for half in (2, 4, 8):
            for q in (2, 3, 4, 5):
                for r in (1, 2):
                    if 2 * r > q:
                        continue
                    assert a_r_expectation_exact(q, r, half) <= a_r_expectation_bound(
                        q, r, half
                    ) + 1e-12

    def test_moment_exact_first_moment_consistency(self):
        assert a_r_moment_exact(3, 1, 2, 1) == pytest.approx(
            a_r_expectation_exact(3, 1, 2)
        )

    def test_monte_carlo_close_to_exact(self):
        exact = a_r_moment_exact(4, 1, 3, 2)
        estimate = a_r_moment_monte_carlo(4, 1, 3, 2, trials=4000, rng=0)
        assert estimate == pytest.approx(exact, rel=0.2)

    @pytest.mark.parametrize("half", [2, 3, 4])
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_lemma_5_5_holds_exactly(self, q, half, m):
        """Lemma 5.5: E[a_r^m] <= (4m)^{2mr}·(q/√(n/2))^{exponent}."""
        for r in range(1, q // 2 + 1):
            moment = a_r_moment_exact(q, r, half, m)
            assert moment <= lemma_5_5_bound(q, r, half, m) + 1e-9


@given(
    q=st.integers(min_value=2, max_value=6),
    half=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50, deadline=None)
def test_claim_3_1_odd_cancelation_property(q, half, seed):
    """b_x(S) = E_z[∏_{j∈S}z(x_j)] equals the evenly-covered indicator."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, half, size=q)
    mask = int(rng.integers(1, 2**q))
    total = 0.0
    for z_index in range(2**half):
        z = np.array([1 if (z_index >> j) & 1 == 0 else -1 for j in range(half)])
        product = 1
        for j in range(q):
            if (mask >> j) & 1:
                product *= z[x[j]]
        total += product
    expectation = total / 2**half
    assert expectation == pytest.approx(1.0 if is_evenly_covered(x, mask) else 0.0)
