"""Tests for independence testing (uniformity's §1 generalisation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.independence import (
    IndependenceTester,
    correlated_joint,
    distance_from_own_product,
    joint_from_matrix,
    marginals,
)
from repro.exceptions import InvalidParameterError


class TestJointAlgebra:
    def test_joint_from_matrix_encoding(self):
        matrix = np.array([[0.1, 0.2], [0.3, 0.4]])
        joint = joint_from_matrix(matrix)
        assert joint.probability(0) == pytest.approx(0.1)   # (0,0)
        assert joint.probability(1) == pytest.approx(0.2)   # (0,1)
        assert joint.probability(2) == pytest.approx(0.3)   # (1,0)

    def test_joint_rejects_1d(self):
        with pytest.raises(InvalidParameterError):
            joint_from_matrix(np.array([0.5, 0.5]))

    def test_marginals(self):
        matrix = np.array([[0.1, 0.2], [0.3, 0.4]])
        left, right = marginals(joint_from_matrix(matrix), 2, 2)
        assert left.pmf.tolist() == pytest.approx([0.3, 0.7])
        assert right.pmf.tolist() == pytest.approx([0.4, 0.6])

    def test_marginals_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            marginals(repro.uniform(6), 2, 2)

    def test_product_of_marginals_independent_fixed_point(self):
        """An already-independent joint equals its own product."""
        joint = joint_from_matrix(np.outer([0.3, 0.7], [0.25, 0.25, 0.5]))
        assert distance_from_own_product(joint, 2, 3) == pytest.approx(0.0)

    def test_correlated_joint_distance_grows(self):
        distances = [
            distance_from_own_product(correlated_joint(8, rho), 8, 8)
            for rho in (0.0, 0.3, 0.7, 1.0)
        ]
        assert distances[0] == pytest.approx(0.0)
        assert distances == sorted(distances)

    def test_correlated_joint_validation(self):
        with pytest.raises(InvalidParameterError):
            correlated_joint(1, 0.5)
        with pytest.raises(InvalidParameterError):
            correlated_joint(4, 1.5)


class TestIndependenceTester:
    def test_accepts_independent_joint(self):
        tester = IndependenceTester(8, 8, epsilon=0.6)
        independent = correlated_joint(8, 0.0)
        assert tester.acceptance_probability(independent, 120, rng=0) >= 0.7

    def test_accepts_skewed_but_independent(self):
        left = repro.zipf_distribution(8, 1.0)
        right = repro.zipf_distribution(8, 0.5)
        joint = joint_from_matrix(np.outer(left.pmf, right.pmf))
        tester = IndependenceTester(8, 8, epsilon=0.6)
        assert tester.acceptance_probability(joint, 120, rng=1) >= 0.7

    def test_rejects_strong_correlation(self):
        tester = IndependenceTester(8, 8, epsilon=0.6)
        correlated = correlated_joint(8, 0.9)
        assert distance_from_own_product(correlated, 8, 8) >= 0.6
        assert tester.acceptance_probability(correlated, 120, rng=2) <= 0.3

    def test_rectangular_domain(self):
        tester = IndependenceTester(4, 16, epsilon=0.6)
        joint = joint_from_matrix(
            np.outer(np.full(4, 0.25), np.full(16, 1 / 16))
        )
        assert tester.acceptance_probability(joint, 100, rng=3) >= 0.7

    def test_resources_accounted(self):
        tester = IndependenceTester(8, 8, epsilon=0.5, q=100)
        assert tester.total_joint_samples == 300

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            IndependenceTester(0, 4, 0.5)
        with pytest.raises(InvalidParameterError):
            IndependenceTester(4, 4, 1.2)
        tester = IndependenceTester(4, 4, 0.5)
        with pytest.raises(InvalidParameterError):
            tester.acceptance_probability(repro.uniform(9), 10)

    def test_single_shot(self):
        tester = IndependenceTester(4, 4, 0.5)
        assert isinstance(tester.test(correlated_joint(4, 0.0), rng=0), bool)


@given(
    rho=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=2, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_correlated_joint_is_valid_distribution(rho, n):
    joint = correlated_joint(n, rho)
    assert joint.pmf.sum() == pytest.approx(1.0)
    left, right = marginals(joint, n, n)
    # Both marginals stay uniform for this family.
    assert np.allclose(left.pmf, 1.0 / n)
    assert np.allclose(right.pmf, 1.0 / n)
