"""Tests for the SPRT-accelerated complexity search.

``sequential`` runs the search with no extra success margin, each level
classified by the engine's sequential test under a 4000-trial cap.
"""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import SearchDivergedError
from repro.stats.complexity import empirical_sample_complexity

N, EPS = 256, 0.5


def factory(q):
    return repro.CentralizedCollisionTester(N, EPS, q=q)


def sequential(tester_factory, **kwargs):
    return empirical_sample_complexity(
        tester_factory, sprt=True, margin=0.0, sprt_max_trials=4000, **kwargs
    )


class TestSequentialSearch:
    def test_agrees_with_fixed_budget_search(self):
        fixed = empirical_sample_complexity(
            factory, n=N, epsilon=EPS, trials=250, rng=0
        )
        result = sequential(factory, n=N, epsilon=EPS, rng=1)
        # Same bracket ballpark: within a factor of 3 either way.
        ratio = result.resource_star / fixed.resource_star
        assert 1 / 3 <= ratio <= 3

    def test_curve_records_used_levels(self):
        result = sequential(factory, n=N, epsilon=EPS, rng=2)
        assert result.resource_star in result.curve
        assert all(0.0 <= s <= 1.0 for s in result.curve.values())

    def test_immediate_success(self):
        result = sequential(
            lambda q: repro.CentralizedCollisionTester(N, EPS, q=max(q, 600)),
            n=N,
            epsilon=EPS,
            q_min=2,
            rng=3,
        )
        assert result.resource_star == 2

    def test_divergence_raises(self):
        with pytest.raises(SearchDivergedError):
            sequential(
                lambda q: repro.CentralizedCollisionTester(N, EPS, q=2),
                n=N,
                epsilon=EPS,
                q_max=32,
                rng=4,
            )

    def test_works_for_distributed_tester(self):
        result = sequential(
            lambda q: repro.ThresholdRuleTester(N, EPS, k=16, q=q),
            n=N,
            epsilon=EPS,
            rng=5,
        )
        bound = repro.theorem_1_1_q_lower(N, 16, EPS)
        assert result.resource_star >= bound
