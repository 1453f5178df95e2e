"""Tests for the closed-form lower-bound formulas and their regimes."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import InvalidParameterError
from repro.lowerbounds import (
    asymmetric_tau_lower,
    centralized_q_lower,
    single_sample_k_lower,
    theorem_1_1_q_lower,
    theorem_1_2_q_lower,
    theorem_1_3_q_lower,
    theorem_1_4_k_lower,
    theorem_6_4_q_lower,
)


class TestCentralized:
    def test_scaling(self):
        assert centralized_q_lower(400, 0.5, constant=1.0) == pytest.approx(80.0)

    def test_quadruple_n_doubles_bound(self):
        assert centralized_q_lower(4 * 256, 0.5) == pytest.approx(
            2 * centralized_q_lower(256, 0.5)
        )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            centralized_q_lower(1, 0.5)
        with pytest.raises(InvalidParameterError):
            centralized_q_lower(16, 1.0)


class TestTheorem11:
    def test_k_equals_one_recovers_centralized(self):
        assert theorem_1_1_q_lower(1024, 1, 0.5) == pytest.approx(
            centralized_q_lower(1024, 0.5)
        )

    def test_sqrt_branch_for_small_k(self):
        # k <= n: min(√(n/k), n/k) = √(n/k)
        assert theorem_1_1_q_lower(1024, 16, 0.5, constant=1.0) == pytest.approx(
            math.sqrt(64) / 0.25
        )

    def test_linear_branch_for_huge_k(self):
        # k > n: the n/k branch takes over.
        assert theorem_1_1_q_lower(64, 256, 0.5, constant=1.0) == pytest.approx(
            (64 / 256) / 0.25
        )

    def test_monotone_decreasing_in_k(self):
        values = [theorem_1_1_q_lower(1024, k, 0.5) for k in (1, 4, 16, 64, 4096)]
        assert values == sorted(values, reverse=True)


class TestTheorem12:
    def test_within_regime(self):
        value = theorem_1_2_q_lower(4096, 8, 0.3, constant=1.0)
        assert value == pytest.approx(64 / (9 * 0.09))

    def test_rejects_exponential_k(self):
        with pytest.raises(InvalidParameterError):
            theorem_1_2_q_lower(4096, 2**20, 0.5, regime_constant=1.0)

    def test_k_one_no_log_blowup(self):
        # log term clamps at 1 so the bound stays finite and positive.
        assert theorem_1_2_q_lower(4096, 1, 0.5) > 0

    def test_and_bound_exceeds_any_rule_bound_for_large_k(self):
        """The AND rule's √n/log²k eventually dwarfs the √(n/k) of any-rule
        testers: the crossover needs √k > log²k (k around 2^16)."""
        n, k, eps = 2**24, 2**20, 0.1
        assert theorem_1_2_q_lower(n, k, eps) > theorem_1_1_q_lower(n, k, eps)


class TestTheorem13:
    def test_decreasing_in_T(self):
        n, k, eps = 65536, 16, 0.2
        values = [theorem_1_3_q_lower(n, k, eps, t) for t in (1, 2, 4)]
        assert values == sorted(values, reverse=True)

    def test_rejects_k_above_sqrt_n(self):
        with pytest.raises(InvalidParameterError):
            theorem_1_3_q_lower(256, 17, 0.2, 1)

    def test_rejects_T_outside_regime(self):
        with pytest.raises(InvalidParameterError):
            theorem_1_3_q_lower(65536, 16, 0.2, reject_threshold=10_000)

    def test_T_one_matches_and_rule_shape(self):
        """At T = 1 the Theorem 1.3 bound has the √n/(polylog·ε²) shape."""
        n, k, eps = 65536, 16, 0.2
        t1 = theorem_1_3_q_lower(n, k, eps, 1)
        assert t1 > 0
        bigger_n = theorem_1_3_q_lower(4 * n, k, eps, 1)
        ratio = bigger_n / t1
        assert 1.5 < ratio < 2.5  # ≈ √4 = 2 up to the log term


class TestTheorem14:
    def test_scaling(self):
        assert theorem_1_4_k_lower(100, 10, constant=1.0) == pytest.approx(100.0)

    def test_quadratic_in_n(self):
        assert theorem_1_4_k_lower(64, 2) == pytest.approx(
            4 * theorem_1_4_k_lower(32, 2)
        )

    def test_inverse_quadratic_in_q(self):
        assert theorem_1_4_k_lower(64, 4) == pytest.approx(
            theorem_1_4_k_lower(64, 2) / 4
        )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            theorem_1_4_k_lower(1, 1)
        with pytest.raises(InvalidParameterError):
            theorem_1_4_k_lower(16, 0)


class TestTheorem64:
    def test_reduces_to_theorem_1_1_shape(self):
        """r-bit messages act like 2^r · k one-bit players."""
        n, k, eps = 4096, 4, 0.5
        assert theorem_6_4_q_lower(n, k, eps, message_bits=2) == pytest.approx(
            theorem_1_1_q_lower(n, 4 * k, eps)
        )

    def test_decreasing_in_message_bits(self):
        values = [theorem_6_4_q_lower(4096, 8, 0.5, r) for r in (1, 2, 3, 4)]
        assert values == sorted(values, reverse=True)


class TestSingleSample:
    def test_linear_in_n(self):
        assert single_sample_k_lower(512, 0.5) == pytest.approx(
            2 * single_sample_k_lower(256, 0.5)
        )

    def test_message_decay(self):
        one = single_sample_k_lower(256, 0.5, message_bits=1)
        three = single_sample_k_lower(256, 0.5, message_bits=3)
        assert three == pytest.approx(one / 2.0)


class TestAsymmetric:
    def test_norm_dependence(self):
        import numpy as np

        single = asymmetric_tau_lower(1024, 0.5, np.ones(1))
        sixteen = asymmetric_tau_lower(1024, 0.5, np.ones(16))
        assert sixteen == pytest.approx(single / 4.0)

    def test_rejects_zero_profile(self):
        with pytest.raises(InvalidParameterError):
            asymmetric_tau_lower(1024, 0.5, [0.0, 0.0])


@pytest.mark.parametrize(
    "bound, kwargs",
    [
        (theorem_1_1_q_lower, dict(n=64, k=0, epsilon=0.5)),
        (theorem_1_2_q_lower, dict(n=64, k=0, epsilon=0.5)),
        (theorem_1_3_q_lower, dict(n=64, k=0, epsilon=0.5, reject_threshold=1)),
        (theorem_1_3_q_lower, dict(n=64, k=2, epsilon=0.5, reject_threshold=0)),
        (theorem_6_4_q_lower, dict(n=64, k=0, epsilon=0.5, message_bits=1)),
        (theorem_6_4_q_lower, dict(n=64, k=2, epsilon=0.5, message_bits=0)),
        (single_sample_k_lower, dict(n=64, epsilon=0.5, message_bits=0)),
        (theorem_6_4_q_lower, dict(n=1, k=2, epsilon=0.5, message_bits=1)),
        (single_sample_k_lower, dict(n=64, epsilon=1.0)),
    ],
    ids=[
        "1.1-k", "1.2-k", "1.3-k", "1.3-T", "6.4-k", "6.4-bits",
        "single-sample-bits", "6.4-n", "single-sample-eps",
    ],
)
def test_rejects_parameters_outside_the_statement(bound, kwargs):
    with pytest.raises(InvalidParameterError):
        bound(**kwargs)
