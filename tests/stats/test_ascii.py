"""Tests for the plain-text chart helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.stats.ascii import (
    SPARK_LEVELS,
    sparkline,
    success_curve_plot,
)


class TestSparkline:
    def test_monotone_series(self):
        line = sparkline([1, 2, 3, 4])
        assert line[0] == SPARK_LEVELS[0]
        assert line[-1] == SPARK_LEVELS[-1]
        assert len(line) == 4

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == SPARK_LEVELS[0] * 3

    def test_explicit_bounds_clip(self):
        line = sparkline([0.0, 10.0], minimum=0.0, maximum=1.0)
        assert line[-1] == SPARK_LEVELS[-1]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            sparkline([])
        with pytest.raises(InvalidParameterError):
            sparkline([1.0], minimum=2.0, maximum=1.0)


class TestSuccessCurve:
    def test_marks_target_and_points(self):
        plot = success_curve_plot([8, 16], [0.2, 0.9], target=2 / 3, width=30)
        lines = plot.splitlines()
        assert len(lines) == 3
        assert "●" in lines[1] and "●" in lines[2]
        assert "0.20" in lines[1]
        assert "0.90" in lines[2]

    def test_point_on_target_overwrites_marker(self):
        plot = success_curve_plot([4], [2 / 3], target=2 / 3, width=30)
        assert "●" in plot

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            success_curve_plot([], [])
        with pytest.raises(InvalidParameterError):
            success_curve_plot([1], [1.5])
        with pytest.raises(InvalidParameterError):
            success_curve_plot([1], [0.5], width=5)
        with pytest.raises(InvalidParameterError):
            success_curve_plot([1], [0.5], target=0.0)


class TestIntegrationWithPowerCurve:
    def test_render_measured_curve(self):
        import repro
        from repro.stats import power_curve

        curve = power_curve(
            lambda q: repro.CentralizedCollisionTester(256, 0.5, q=q),
            levels=[8, 64, 512],
            n=256,
            epsilon=0.5,
            trials=100,
            rng=0,
        )
        plot = success_curve_plot(curve.levels, curve.successes)
        assert plot.count("●") == 3
