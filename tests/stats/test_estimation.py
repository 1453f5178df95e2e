"""Tests for Bernoulli estimation with Wilson intervals."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.stats import estimate_probability, wilson_interval


class TestWilson:
    def test_symmetric_at_half(self):
        low, high = wilson_interval(50, 100)
        assert low == pytest.approx(1 - high, abs=1e-9)

    def test_contains_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low < 0.3 < high

    def test_boundary_zero_successes(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert high > 0.0

    def test_boundary_all_successes(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert low < 1.0

    def test_width_shrinks_with_trials(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            wilson_interval(5, 0)
        with pytest.raises(InvalidParameterError):
            wilson_interval(11, 10)
        with pytest.raises(InvalidParameterError):
            wilson_interval(5, 10, z=0.0)


class TestEstimateProbability:
    def test_point_estimate(self):
        estimate = estimate_probability(lambda t: t // 2, trials=100)
        assert estimate.point == pytest.approx(0.5)
        assert estimate.successes == 50
        assert estimate.lower < 0.5 < estimate.upper

    def test_half_width(self):
        estimate = estimate_probability(lambda t: t // 4, trials=400)
        assert estimate.half_width == pytest.approx(
            (estimate.upper - estimate.lower) / 2
        )

    def test_rejects_bad_sampler(self):
        with pytest.raises(InvalidParameterError):
            estimate_probability(lambda t: t + 1, trials=10)

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidParameterError):
            estimate_probability(lambda t: 0, trials=0)


@given(
    successes=st.integers(min_value=0, max_value=200),
    extra=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=80, deadline=None)
def test_wilson_interval_properties(successes, extra):
    trials = successes + extra
    if trials == 0:
        return
    low, high = wilson_interval(successes, trials)
    assert 0.0 <= low <= high <= 1.0
    point = successes / trials
    assert low <= point + 1e-12
    assert high >= point - 1e-12


def test_wilson_coverage_statistically():
    """The 95% interval's exact coverage at several p: the Binomial(120, p)
    mass of the success counts whose interval contains p (0.942-0.954)."""
    from scipy.stats import binom

    trials = 120
    intervals = [wilson_interval(successes, trials) for successes in range(trials + 1)]
    for true_p in (0.05, 0.3, 0.5, 0.9):
        coverage = sum(
            binom.pmf(successes, trials, true_p)
            for successes, (low, high) in enumerate(intervals)
            if low <= true_p <= high
        )
        assert coverage >= 0.93, (true_p, coverage)
