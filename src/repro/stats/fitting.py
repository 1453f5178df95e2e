"""Power-law fitting for scaling experiments.

The paper's theorems predict power laws — q* ∝ √(n/k)/ε², k* ∝ n²/q², etc.
Reproduction means recovering the *exponents* from measured data, which a
least-squares fit in log-log space does:  ``y ≈ prefactor · x^exponent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import InvalidParameterError


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting ``y = prefactor · x^exponent``."""

    exponent: float
    prefactor: float
    r_squared: float
    num_points: int

    def predict(self, x: float) -> float:
        """Evaluate the fitted law at ``x``."""
        return self.prefactor * x**self.exponent

    def __repr__(self) -> str:
        return (
            f"PowerLawFit(y ≈ {self.prefactor:.3g}·x^{self.exponent:.3f}, "
            f"R²={self.r_squared:.3f}, points={self.num_points})"
        )


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares fit of a power law in log-log space.

    Requires at least two distinct, strictly positive x values and strictly
    positive y values.
    """
    x_arr = np.asarray(xs, dtype=np.float64)
    y_arr = np.asarray(ys, dtype=np.float64)
    if x_arr.shape != y_arr.shape or x_arr.ndim != 1:
        raise InvalidParameterError("xs and ys must be 1-d sequences of equal length")
    if x_arr.size < 2:
        raise InvalidParameterError("need at least two points to fit a power law")
    if np.any(x_arr <= 0) or np.any(y_arr <= 0):
        raise InvalidParameterError("power-law fitting needs strictly positive data")
    log_x, log_y = np.log(x_arr), np.log(y_arr)
    if np.allclose(log_x, log_x[0]):
        raise InvalidParameterError("xs must contain at least two distinct values")

    slope, intercept = np.polyfit(log_x, log_y, deg=1)
    predictions = slope * log_x + intercept
    residual = float(((log_y - predictions) ** 2).sum())
    total = float(((log_y - log_y.mean()) ** 2).sum())
    r_squared = 1.0 if total == 0.0 else 1.0 - residual / total
    return PowerLawFit(
        exponent=float(slope),
        prefactor=float(math.exp(intercept)),
        r_squared=r_squared,
        num_points=int(x_arr.size),
    )
