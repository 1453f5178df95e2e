"""Tests for the exact lemma-verification engine.

The engine is the heart of the reproduction: it computes ν_z(G), μ(G) and
the Fourier-side expression of Lemma 4.1 *exactly* on small universes, so
these tests are direct checks of the paper's mathematics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import PaninskiFamily
from repro.exceptions import InvalidParameterError
from repro.lowerbounds.lemma_engine import (
    check_lemma_4_2,
    check_lemma_4_3,
    check_lemma_4_4,
    check_lemma_5_1,
    collision_threshold_g,
    constant_g,
    lemma_4_1_identity_gap,
    lemma_4_1_spectral_diff,
    lemma_4_4_required_constant,
    mu_of_g,
    no_collision_g,
    nu_z_of_g,
    random_g,
    sign_dictator_g,
    standard_g_suite,
    var_of_g,
    z_statistics,
)


class TestBasicQuantities:
    def test_mu_of_constant(self, small_family):
        assert mu_of_g(constant_g(small_family, 2, 1)) == 1.0
        assert mu_of_g(constant_g(small_family, 2, 0)) == 0.0

    def test_var_of_balanced(self, small_family):
        g = sign_dictator_g(small_family, 2)
        assert mu_of_g(g) == pytest.approx(0.5)
        assert var_of_g(g) == pytest.approx(0.25)

    def test_nu_z_of_constant_equals_one(self, small_family):
        g = constant_g(small_family, 2, 1)
        z = small_family.random_z(0)
        assert nu_z_of_g(g, small_family, 2, z) == pytest.approx(1.0)

    def test_nu_z_probabilities_valid(self, small_family, rng):
        g = random_g(small_family, 2, 0.5, rng)
        for z in small_family.all_z():
            value = nu_z_of_g(g, small_family, 2, z)
            assert 0.0 <= value <= 1.0

    def test_sign_dictator_maximally_sensitive(self, small_family):
        """G = 1{s_1 = +1} has ν_z(G) = (1 + ε·mean(z))/2 exactly."""
        g = sign_dictator_g(small_family, 1)
        eps = small_family.epsilon
        for z in small_family.all_z():
            expected = 0.5 * (1.0 + eps * z.mean())
            assert nu_z_of_g(g, small_family, 1, z) == pytest.approx(expected)

    def test_g_shape_validation(self, small_family):
        with pytest.raises(InvalidParameterError):
            nu_z_of_g(np.zeros(10), small_family, 2, small_family.random_z(0))

    def test_g_value_validation(self, small_family):
        bad = np.full(small_family.n, 0.5)
        with pytest.raises(InvalidParameterError):
            nu_z_of_g(bad, small_family, 1, small_family.random_z(0))


class TestZStatistics:
    def test_mean_diff_zero_for_q_one(self, small_family, rng):
        """With one sample the mixture is exactly uniform (Section 3), so
        E_z[ν_z(G)] = μ(G) for every G."""
        for _ in range(5):
            g = random_g(small_family, 1, rng.random(), rng)
            stats = z_statistics(g, small_family, 1)
            assert stats.mean_diff == pytest.approx(0.0, abs=1e-12)

    def test_second_moment_positive_for_sensitive_g(self, small_family):
        g = sign_dictator_g(small_family, 1)
        stats = z_statistics(g, small_family, 1)
        # Var over z of (1 + ε·mean(z))/2 = ε²/(4·half)
        expected = small_family.epsilon**2 / (4 * small_family.half)
        assert stats.second_moment == pytest.approx(expected)

    def test_constant_g_has_zero_shift(self, small_family):
        stats = z_statistics(constant_g(small_family, 2, 1), small_family, 2)
        assert stats.mean_diff == 0.0
        assert stats.second_moment == 0.0

    def test_values_array_complete(self, small_family, rng):
        g = random_g(small_family, 2, 0.5, rng)
        stats = z_statistics(g, small_family, 2)
        assert stats.values.shape == (small_family.family_size,)


class TestLemma41Identity:
    """Lemma 4.1 is an exact identity — the spectral and direct forms of
    ν_z(G) − μ(G) must agree to machine precision for every G and z."""

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_identity_on_random_g(self, small_family, rng, q):
        g = random_g(small_family, q, 0.5, rng)
        for _ in range(3):
            z = small_family.random_z(rng)
            assert lemma_4_1_identity_gap(g, small_family, q, z) < 1e-12

    def test_identity_on_structured_g(self, small_family, rng):
        for label, g in standard_g_suite(small_family, 2, rng):
            z = small_family.random_z(rng)
            gap = lemma_4_1_identity_gap(g, small_family, 2, z)
            assert gap < 1e-12, label

    def test_identity_across_epsilons(self, rng):
        for eps in (0.1, 0.35, 0.8):
            family = PaninskiFamily(8, eps)
            g = random_g(family, 2, 0.6, rng)
            z = family.random_z(rng)
            assert lemma_4_1_identity_gap(g, family, 2, z) < 1e-12

    def test_spectral_diff_zero_for_constant(self, small_family):
        g = constant_g(small_family, 2, 1)
        z = small_family.random_z(3)
        assert lemma_4_1_spectral_diff(g, small_family, 2, z) == pytest.approx(
            0.0, abs=1e-14
        )


class TestLemmaBounds:
    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("eps", [0.25, 0.5])
    def test_lemma_5_1_holds_on_suite(self, q, eps, rng):
        family = PaninskiFamily(8, eps)
        for label, g in standard_g_suite(family, q, rng):
            check = check_lemma_5_1(g, family, q)
            if check.condition_met:
                assert check.holds, (label, check)

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("eps", [0.25, 0.5])
    def test_lemma_4_2_holds_on_suite(self, q, eps, rng):
        family = PaninskiFamily(8, eps)
        for label, g in standard_g_suite(family, q, rng):
            check = check_lemma_4_2(g, family, q)
            if check.condition_met:
                assert check.holds, (label, check)

    @pytest.mark.parametrize("m", [1, 2])
    def test_lemma_4_3_holds_on_biased_suite(self, m, rng):
        family = PaninskiFamily(8, 0.25)
        tables = [
            collision_threshold_g(family, 2, 1),
            random_g(family, 2, 0.95, rng),
            random_g(family, 2, 0.99, rng),
        ]
        for g in tables:
            check = check_lemma_4_3(g, family, 2, m)
            if check.condition_met:
                assert check.holds, check

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("q", [1, 2])
    def test_lemma_4_4_holds_on_suite(self, q, m, rng):
        family = PaninskiFamily(8, 0.25)
        for label, g in standard_g_suite(family, q, rng):
            check = check_lemma_4_4(g, family, q, m)
            assert check.holds, (label, check)

    def test_lemma_4_4_required_constant_suffices(self, rng):
        """The searched constant makes the bound hold; a zero means the
        interpolation term is not needed at all."""
        family = PaninskiFamily(8, 0.5)
        for q in (1, 2):
            for label, g in standard_g_suite(family, q, rng):
                needed = lemma_4_4_required_constant(g, family, q, 1)
                assert needed >= 0.0, label
                check = check_lemma_4_4(g, family, q, 1, constant=max(needed, 1e-300))
                assert check.holds, (label, needed, check)

    def test_lemma_4_4_rejects_bad_parameters(self, small_family):
        g = constant_g(small_family, 2, 1)
        with pytest.raises(InvalidParameterError):
            check_lemma_4_4(g, small_family, 2, 0)
        with pytest.raises(InvalidParameterError):
            check_lemma_4_4(g, small_family, 2, 1, constant=0.0)

    def test_literal_constant_counterexample(self):
        """Reproduction finding: the paper's literal Lemma 4.2 constant
        (1·qε²/n on the linear term) fails on the sign dictator at q = 1
        and small ε by the exact factor 2/(1 + 20ε²); the corrected
        coefficient 2 makes the bound hold with equality there."""
        eps = 0.2
        for half in (2, 3, 4):
            family = PaninskiFamily(2 * half, eps)
            g = sign_dictator_g(family, 1)
            literal = check_lemma_4_2(g, family, 1, linear_coefficient=1.0)
            assert literal.condition_met
            assert not literal.holds
            assert literal.lhs / literal.rhs == pytest.approx(
                2.0 / (1.0 + 20.0 * eps**2)
            )
            corrected = check_lemma_4_2(g, family, 1)
            assert corrected.holds
            # exact extremal value: lhs = ε²/(2n) = 2·(qε²/n)·var(G)
            assert literal.lhs == pytest.approx(eps**2 / (2 * family.n))

    def test_lemma_4_3_rejects_bad_m(self, small_family):
        g = constant_g(small_family, 2, 1)
        with pytest.raises(InvalidParameterError):
            check_lemma_4_3(g, small_family, 2, 0)

    def test_check_reports_regime(self):
        """Large q must be flagged as outside the lemma's stated regime."""
        family = PaninskiFamily(4, 0.9)
        g = no_collision_g(family, 4)
        check = check_lemma_5_1(g, family, 4)
        assert not check.condition_met


class TestGBuilders:
    def test_no_collision_g_semantics(self, small_family):
        g = no_collision_g(small_family, 2)
        n = small_family.n
        for e1 in range(n):
            for e2 in range(n):
                index = e1 * n + e2
                expected = 0.0 if e1 // 2 == e2 // 2 else 1.0
                assert g[index] == expected

    def test_collision_threshold_g_counts_elements(self, small_family):
        g = collision_threshold_g(small_family, 2, 0)
        n = small_family.n
        # Only exact element repeats count as collisions here.
        assert g[0 * n + 0] == 0.0
        assert g[0 * n + 1] == 1.0

    def test_random_g_bias(self, small_family, rng):
        g = random_g(small_family, 3, 0.9, rng)
        assert g.mean() == pytest.approx(0.9, abs=0.05)

    def test_suite_labels_unique(self, small_family, rng):
        labels = [label for label, _ in standard_g_suite(small_family, 2, rng)]
        assert len(labels) == len(set(labels))

    def test_engine_refuses_huge_instances(self):
        family = PaninskiFamily(2 * 16, 0.5)
        g = np.ones(family.n)
        with pytest.raises(InvalidParameterError):
            z_statistics(g, family, 1)


@given(
    half=st.integers(min_value=2, max_value=4),
    q=st.integers(min_value=1, max_value=2),
    eps=st.floats(min_value=0.05, max_value=0.9),
    bias=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_lemma_4_1_identity_property(half, q, eps, bias, seed):
    """Property: the Fourier identity of Lemma 4.1 holds for arbitrary G, z."""
    rng = np.random.default_rng(seed)
    family = PaninskiFamily(2 * half, eps)
    g = random_g(family, q, bias, rng)
    z = family.random_z(rng)
    assert lemma_4_1_identity_gap(g, family, q, z) < 1e-11


@given(
    half=st.integers(min_value=2, max_value=3),
    eps=st.floats(min_value=0.05, max_value=0.6),
    bias=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_lemma_4_2_property(half, eps, bias, seed):
    """Property: Lemma 4.2 never fails in its stated regime."""
    rng = np.random.default_rng(seed)
    family = PaninskiFamily(2 * half, eps)
    g = random_g(family, 2, bias, rng)
    check = check_lemma_4_2(g, family, 2)
    assert not check.condition_met or check.holds
