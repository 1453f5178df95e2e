"""Tests for power-law fitting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.stats import fit_power_law


class TestFit:
    def test_exact_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        ys = 3.0 * xs**1.5
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(1.5)
        assert fit.prefactor == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_negative_exponent(self):
        xs = np.array([1.0, 10.0, 100.0])
        ys = 5.0 / np.sqrt(xs)
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(-0.5)

    def test_noisy_data_reasonable(self, rng):
        xs = np.logspace(0, 3, 20)
        ys = 2.0 * xs**0.8 * np.exp(rng.normal(0, 0.05, 20))
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.8, abs=0.1)
        assert fit.r_squared > 0.95

    def test_predict(self):
        fit = fit_power_law([1.0, 2.0], [2.0, 4.0])
        assert fit.predict(8.0) == pytest.approx(16.0)

    def test_constant_data_zero_exponent(self):
        fit = fit_power_law([1.0, 2.0, 4.0], [7.0, 7.0, 7.0])
        assert fit.exponent == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            fit_power_law([1.0], [2.0])
        with pytest.raises(InvalidParameterError):
            fit_power_law([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(InvalidParameterError):
            fit_power_law([1.0, -2.0], [1.0, 1.0])
        with pytest.raises(InvalidParameterError):
            fit_power_law([2.0, 2.0], [1.0, 3.0])
        with pytest.raises(InvalidParameterError):
            fit_power_law([1.0, 2.0], [1.0, 2.0, 3.0])

@given(
    exponent=st.floats(min_value=-3.0, max_value=3.0),
    prefactor=st.floats(min_value=0.1, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_fit_recovers_exact_laws(exponent, prefactor):
    xs = np.array([1.0, 3.0, 9.0, 27.0])
    ys = prefactor * xs**exponent
    fit = fit_power_law(xs, ys)
    assert fit.exponent == pytest.approx(exponent, abs=1e-9)
    assert fit.prefactor == pytest.approx(prefactor, rel=1e-9)
