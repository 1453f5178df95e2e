"""Distances and divergences between discrete distributions.

The paper measures farness from uniform in ℓ1 distance; its information-
theoretic argument (Section 6.1) uses KL divergence and the Bernoulli
χ²-comparison of Fact 6.3.  This module implements every metric the library
needs, each accepting either :class:`DiscreteDistribution` instances or raw
pmf vectors.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..exceptions import DimensionMismatchError, InvalidParameterError
from .discrete import DiscreteDistribution

PmfLike = Union[DiscreteDistribution, Sequence[float], np.ndarray]


def _as_pmf(value: PmfLike) -> np.ndarray:
    if isinstance(value, DiscreteDistribution):
        return value.pmf
    return np.asarray(value, dtype=np.float64)


def _paired(p: PmfLike, q: PmfLike) -> tuple:
    p_arr, q_arr = _as_pmf(p), _as_pmf(q)
    if p_arr.shape != q_arr.shape:
        raise DimensionMismatchError(
            f"distributions live on different domains: {p_arr.shape} vs {q_arr.shape}"
        )
    return p_arr, q_arr


def l1_distance(p: PmfLike, q: PmfLike) -> float:
    """ℓ1 distance ``sum_i |p_i - q_i|`` (twice the total variation)."""
    p_arr, q_arr = _paired(p, q)
    return float(np.abs(p_arr - q_arr).sum())


def l2_distance(p: PmfLike, q: PmfLike) -> float:
    """Euclidean distance between pmf vectors."""
    p_arr, q_arr = _paired(p, q)
    return float(np.linalg.norm(p_arr - q_arr))


def total_variation(p: PmfLike, q: PmfLike) -> float:
    """Total-variation distance ``max_A |P(A) - Q(A)| = l1/2``."""
    return 0.5 * l1_distance(p, q)


def kl_divergence(p: PmfLike, q: PmfLike, base: float = 2.0) -> float:
    """KL divergence ``D(p || q) = sum_i p_i log(p_i/q_i)``.

    Returns ``inf`` when ``p`` puts mass where ``q`` does not.  Logarithm
    base 2 by default, matching the bit-counting convention of Section 6.
    """
    p_arr, q_arr = _paired(p, q)
    support = p_arr > 0
    if np.any(q_arr[support] == 0.0):
        return float("inf")
    ratio = p_arr[support] / q_arr[support]
    return float((p_arr[support] * np.log(ratio)).sum() / np.log(base))


def chi_squared_divergence(p: PmfLike, q: PmfLike) -> float:
    """χ² divergence ``sum_i (p_i - q_i)^2 / q_i`` (infinite off q's support)."""
    p_arr, q_arr = _paired(p, q)
    off_support = (q_arr == 0.0) & (p_arr > 0.0)
    if np.any(off_support):
        return float("inf")
    support = q_arr > 0
    diff = p_arr[support] - q_arr[support]
    return float((diff * diff / q_arr[support]).sum())


def bernoulli_kl(alpha: float, beta: float, base: float = 2.0) -> float:
    """KL divergence between Bernoulli(alpha) and Bernoulli(beta).

    This is the quantity bounded by Fact 6.3 of the paper:
    ``D(B(α) || B(β)) <= (α-β)² / (var(B(β)) ln 2)`` (in bits).
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= value <= 1.0:
            raise InvalidParameterError(f"{name} must be in [0,1], got {value}")
    return kl_divergence(
        np.array([alpha, 1.0 - alpha]), np.array([beta, 1.0 - beta]), base
    )


def bernoulli_kl_chi2_bound(alpha: float, beta: float) -> float:
    """The Fact 6.3 upper bound ``(α-β)² / (β(1-β) ln 2)`` in bits.

    Infinite when ``β`` is degenerate (variance zero) and ``α != β``.
    """
    variance = beta * (1.0 - beta)
    if variance == 0.0:
        return 0.0 if alpha == beta else float("inf")
    return (alpha - beta) ** 2 / (variance * np.log(2.0))


def distance_to_uniform(p: PmfLike) -> float:
    """ℓ1 distance from ``p`` to the uniform distribution on its domain."""
    p_arr = _as_pmf(p)
    return float(np.abs(p_arr - 1.0 / p_arr.size).sum())


def is_epsilon_far_from_uniform(p: PmfLike, epsilon: float) -> bool:
    """Whether ``||p - U_n||_1 >= epsilon`` (the paper's farness predicate)."""
    if epsilon < 0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    return distance_to_uniform(p) >= epsilon
