"""Tests for the alternative-statistic baseline testers."""

from __future__ import annotations

import pytest

import repro
from repro.core.baselines import EmpiricalDistanceTester, UniqueElementsTester
from repro.exceptions import InvalidParameterError
from tests.oracles import expected_distinct_uniform

N, EPS = 256, 0.5
FAR = repro.two_level_distribution(N, EPS)


class TestUniqueElements:
    def test_expected_distinct_formula(self):
        # q = 1 → exactly 1 distinct; q → ∞ → n distinct.
        assert expected_distinct_uniform(16, 1) == pytest.approx(1.0)
        assert expected_distinct_uniform(16, 10_000) == pytest.approx(
            16.0, abs=1e-6
        )

    def test_expected_distinct_matches_monte_carlo(self, rng):
        from repro.core.players import unique_counts

        n, q = 64, 24
        counts = unique_counts(repro.uniform(n).sample_matrix(8000, q, rng))
        assert counts.mean() == pytest.approx(
            expected_distinct_uniform(n, q), abs=0.1
        )

    def test_completeness_and_soundness(self):
        tester = UniqueElementsTester(N, EPS)
        assert tester.completeness(200, rng=0) >= 0.7
        assert tester.soundness(FAR, 200, rng=1) >= 0.7

    def test_paninski_soundness(self):
        tester = UniqueElementsTester(N, EPS)
        member = repro.PaninskiFamily(N, EPS).sample_distribution(3)
        assert tester.soundness(member, 200, rng=2) >= 0.65

    def test_underpowered_fails(self):
        tester = UniqueElementsTester(N, EPS, q=4)
        assert tester.soundness(FAR, 200, rng=3) < 0.65

    def test_resources(self):
        tester = UniqueElementsTester(N, EPS, q=50)
        assert tester.resources.total_samples == 50


class TestEmpiricalDistance:
    def test_default_budget_linear_in_n(self):
        small = EmpiricalDistanceTester(64, EPS)
        large = EmpiricalDistanceTester(256, EPS)
        assert large.q == pytest.approx(4 * small.q, rel=0.05)

    def test_completeness_and_soundness(self):
        tester = EmpiricalDistanceTester(64, EPS)
        far = repro.two_level_distribution(64, EPS)
        assert tester.completeness(100, rng=0) >= 0.7
        assert tester.soundness(far, 100, rng=1) >= 0.7

    def test_needs_far_more_than_collision_tester(self):
        """The plug-in tester's default budget dwarfs the collision
        tester's at the same (n, ε) — the √n gap."""
        n = 1024
        plugin = EmpiricalDistanceTester(n, EPS)
        collision = repro.CentralizedCollisionTester(n, EPS)
        assert plugin.q > 4 * collision.q

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            EmpiricalDistanceTester(64, EPS, q=1)
