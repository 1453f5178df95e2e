"""Distributed distribution learning (the Theorem 1.4 counterpart).

Theorem 1.4: any q-query protocol in which each player sends one bit and
the referee must output a δ-approximation (in ℓ1) of the unknown input
distribution needs ``k = Ω(n²/q²)`` players.  This module implements the
*upper-bound side*: concrete one-bit learning protocols whose measured
player complexity brackets the lower bound from above.

Two protocols are provided:

* :class:`HitCountingLearner` — players are assigned domain elements;
  each reports whether any of its q samples hit its element.  Inverting
  the hit probability estimates each μ_i.  Achieves ℓ1 error
  ``O(n/√(k·q))``, i.e. k = O(n²/(δ²·q)).
* :class:`FrequencyDitheringLearner` — each player compares its empirical
  frequency of the assigned element against a public random dithered
  threshold, turning one bit into an unbiased-ish 1/√q-resolution reading.

At q = 1 both match the Θ(n²) scaling of [1]; for q > 1 they sit between
the paper's Ω(n²/q²) lower bound and the trivial Ω(n²) — E4 measures
exactly where (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..distributions.discrete import DiscreteDistribution
from ..distributions.distances import l1_distance
from ..engine import KernelBase, tester_fingerprint
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng


@dataclass
class LearningOutcome:
    """Result of one learning-protocol execution."""

    estimate: DiscreteDistribution
    l1_error: float
    num_players: int
    samples_per_player: int

    @property
    def total_samples(self) -> int:
        return self.num_players * self.samples_per_player


def _assign_players_to_elements(k: int, n: int) -> np.ndarray:
    """Element index assigned to each of the k players (balanced round-robin)."""
    return np.arange(k, dtype=np.int64) % n


def _per_trial_rates(
    assignments: np.ndarray, bits: np.ndarray, trials: int, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial per-element bit rates from a (trials·k) bit vector.

    Returns ``(p_hat, observers, observed)`` where ``p_hat`` is the
    (trials × n) mean bit per assigned element (0 where unobserved),
    ``observers`` counts players per element and ``observed`` masks
    elements with at least one observer.
    """
    k = assignments.size
    observers = np.bincount(assignments, minlength=n).astype(np.float64)
    observed = observers > 0
    flat_keys = (
        np.repeat(np.arange(trials, dtype=np.int64) * n, k)
        + np.tile(assignments, trials)
    )
    rate_sums = np.bincount(
        flat_keys, weights=bits.ravel(), minlength=trials * n
    ).reshape(trials, n)
    p_hat = np.zeros((trials, n))
    p_hat[:, observed] = rate_sums[:, observed] / observers[observed]
    return p_hat, observers, observed


def _normalise_estimates(estimates: np.ndarray, fallback: float) -> np.ndarray:
    """Clip negatives and renormalise each row; empty rows get ``fallback``."""
    estimates = np.clip(estimates, 0.0, None)
    totals = estimates.sum(axis=1, keepdims=True)
    degenerate = (totals <= 0.0).ravel()
    safe_totals = np.where(totals <= 0.0, 1.0, totals)
    estimates = estimates / safe_totals
    estimates[degenerate] = fallback
    return estimates


class HitCountingLearner:
    """Learn μ from one "did any of my samples hit element i?" bit per player.

    Parameters
    ----------
    n:
        Domain size.
    k:
        Number of players; should be at least ``n`` (each element needs at
        least one observer — with fewer, unobserved elements default to
        the uniform prior 1/n).
    q:
        Samples per player.
    """

    def __init__(self, n: int, k: int, q: int):
        if n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {n}")
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        if q < 1:
            raise InvalidParameterError(f"q must be >= 1, got {q}")
        self.n, self.k, self.q = int(n), int(k), int(q)

    def learn(
        self, distribution: DiscreteDistribution, rng: RngLike = None
    ) -> LearningOutcome:
        """Run the protocol once and return the referee's estimate."""
        if distribution.n != self.n:
            raise InvalidParameterError(
                f"distribution domain {distribution.n} != learner domain {self.n}"
            )
        generator = ensure_rng(rng)
        assignments = _assign_players_to_elements(self.k, self.n)
        samples = distribution.sample_matrix(self.k, self.q, generator)
        bits = (samples == assignments[:, np.newaxis]).any(axis=1).astype(np.float64)

        hit_rate = np.bincount(assignments, weights=bits, minlength=self.n)
        observers = np.bincount(assignments, minlength=self.n).astype(np.float64)
        estimate = np.full(self.n, 1.0 / self.n)
        observed = observers > 0
        p_hat = np.zeros(self.n)
        p_hat[observed] = hit_rate[observed] / observers[observed]
        # Invert P[hit] = 1 - (1 - μ_i)^q, clipping away the p̂ = 1 pole.
        p_hat = np.clip(p_hat, 0.0, 1.0 - 1e-12)
        estimate[observed] = 1.0 - (1.0 - p_hat[observed]) ** (1.0 / self.q)
        estimate = np.clip(estimate, 0.0, None)
        total = estimate.sum()
        if total <= 0.0:
            estimate = np.full(self.n, 1.0 / self.n)
        else:
            estimate = estimate / total
        learned = DiscreteDistribution(estimate)
        return LearningOutcome(
            estimate=learned,
            l1_error=l1_distance(learned, distribution),
            num_players=self.k,
            samples_per_player=self.q,
        )

    def l1_errors_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """ℓ1 errors of ``trials`` independent protocol runs, batched.

        One sample matrix covers every run; the hit bits, rate inversion
        and renormalisation are computed row-wise.  The per-run estimate
        law matches :meth:`learn` (the RNG stream layout differs).
        """
        if distribution.n != self.n:
            raise InvalidParameterError(
                f"distribution domain {distribution.n} != learner domain {self.n}"
            )
        generator = ensure_rng(rng)
        assignments = _assign_players_to_elements(self.k, self.n)
        samples = distribution.sample_matrix(trials * self.k, self.q, generator)
        bits = (
            (samples == np.tile(assignments, trials)[:, np.newaxis])
            .any(axis=1)
            .astype(np.float64)
        )
        p_hat, _, observed = _per_trial_rates(assignments, bits, trials, self.n)
        # Invert P[hit] = 1 - (1 - μ_i)^q, clipping away the p̂ = 1 pole.
        p_hat = np.clip(p_hat, 0.0, 1.0 - 1e-12)
        estimates = np.full((trials, self.n), 1.0 / self.n)
        estimates[:, observed] = 1.0 - (1.0 - p_hat[:, observed]) ** (1.0 / self.q)
        estimates = _normalise_estimates(estimates, 1.0 / self.n)
        return np.abs(estimates - distribution.pmf[np.newaxis, :]).sum(axis=1)

    def expected_error_scale(self) -> float:
        """The analytic error scale n/√(k·q) this protocol should achieve."""
        return self.n / math.sqrt(self.k * self.q)


class FrequencyDitheringLearner:
    """Learn μ via one dithered-threshold frequency comparison per player.

    Player j (assigned element i) computes the empirical frequency
    ``f_j = #{samples == i} / q`` and sends ``1{f_j >= θ_j}`` for a public
    random threshold ``θ_j`` drawn uniformly from a window of width ``w``
    centred at the prior 1/n.  For μ_i inside the window,
    ``E[bit] ≈ 1/2 + (μ_i - 1/n)/w``, so the referee reads μ_i to
    resolution ``w/√(#observers)`` — the window shrinks like 1/√q, which is
    where the q-dependence of the error comes from.

    Parameters
    ----------
    window_scale:
        Width multiplier; the window is
        ``window_scale · max(1/n, sqrt(1/(n·q)))``.
    """

    def __init__(self, n: int, k: int, q: int, window_scale: float = 8.0):
        if n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {n}")
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        if q < 1:
            raise InvalidParameterError(f"q must be >= 1, got {q}")
        if window_scale <= 0:
            raise InvalidParameterError(
                f"window_scale must be > 0, got {window_scale}"
            )
        self.n, self.k, self.q = int(n), int(k), int(q)
        self.window = window_scale * max(1.0 / n, math.sqrt(1.0 / (n * q)))

    def learn(
        self, distribution: DiscreteDistribution, rng: RngLike = None
    ) -> LearningOutcome:
        """Run the protocol once and return the referee's estimate."""
        if distribution.n != self.n:
            raise InvalidParameterError(
                f"distribution domain {distribution.n} != learner domain {self.n}"
            )
        generator = ensure_rng(rng)
        assignments = _assign_players_to_elements(self.k, self.n)
        samples = distribution.sample_matrix(self.k, self.q, generator)
        frequencies = (
            (samples == assignments[:, np.newaxis]).sum(axis=1) / float(self.q)
        )
        centre = 1.0 / self.n
        thresholds = generator.uniform(
            centre - self.window / 2.0, centre + self.window / 2.0, size=self.k
        )
        bits = (frequencies >= thresholds).astype(np.float64)

        bit_rate = np.bincount(assignments, weights=bits, minlength=self.n)
        observers = np.bincount(assignments, minlength=self.n).astype(np.float64)
        estimate = np.full(self.n, centre)
        observed = observers > 0
        p_hat = np.zeros(self.n)
        p_hat[observed] = bit_rate[observed] / observers[observed]
        estimate[observed] = centre + self.window * (p_hat[observed] - 0.5)
        estimate = np.clip(estimate, 0.0, None)
        total = estimate.sum()
        if total <= 0.0:
            estimate = np.full(self.n, centre)
        else:
            estimate = estimate / total
        learned = DiscreteDistribution(estimate)
        return LearningOutcome(
            estimate=learned,
            l1_error=l1_distance(learned, distribution),
            num_players=self.k,
            samples_per_player=self.q,
        )

    def l1_errors_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """ℓ1 errors of ``trials`` independent protocol runs, batched.

        Samples for every run are drawn first, then every run's dithered
        thresholds; the per-run estimate law matches :meth:`learn` (the
        RNG stream layout differs).
        """
        if distribution.n != self.n:
            raise InvalidParameterError(
                f"distribution domain {distribution.n} != learner domain {self.n}"
            )
        generator = ensure_rng(rng)
        assignments = _assign_players_to_elements(self.k, self.n)
        samples = distribution.sample_matrix(trials * self.k, self.q, generator)
        frequencies = (
            (samples == np.tile(assignments, trials)[:, np.newaxis]).sum(axis=1)
            / float(self.q)
        )
        centre = 1.0 / self.n
        thresholds = generator.uniform(
            centre - self.window / 2.0,
            centre + self.window / 2.0,
            size=trials * self.k,
        )
        bits = (frequencies >= thresholds).astype(np.float64)
        p_hat, _, observed = _per_trial_rates(assignments, bits, trials, self.n)
        estimates = np.full((trials, self.n), centre)
        estimates[:, observed] = centre + self.window * (p_hat[:, observed] - 0.5)
        estimates = _normalise_estimates(estimates, centre)
        return np.abs(estimates - distribution.pmf[np.newaxis, :]).sum(axis=1)

    def expected_error_scale(self) -> float:
        """The analytic error scale this protocol should achieve.

        Per element the reading error is ``window/√(k/n)``; summed over n
        elements this gives ``n · window · √(n/k)``.
        """
        return self.n * self.window * math.sqrt(self.n / self.k)


class LearningSuccessKernel(KernelBase):
    """Accept kernel: one learning run succeeds iff ``l1_error <= delta``.

    Lifts any learner exposing the batched ``l1_errors_block(distribution,
    trials, rng)`` onto the engine's kernel substrate, so its
    ``acceptance_probability`` — P[l1_error <= delta] — and
    success-probability sweeps (e.g. empirical player-complexity searches
    for Theorem 1.4) share the cache, chunked streaming and sequential
    early stopping with every other estimator.
    """

    #: v2: learners expose a batched l1_errors_block, drawing every run's
    #: samples in one matrix (same per-run law, different stream layout
    #: than the per-trial learn() loop).
    kernel_version = 2

    def __init__(self, learner: object, delta: float):
        if delta <= 0.0:
            raise InvalidParameterError(f"delta must be > 0, got {delta}")
        if not hasattr(learner, "l1_errors_block"):
            raise InvalidParameterError(
                f"{type(learner).__name__} exposes no l1_errors_block() protocol"
            )
        self.learner = learner
        self.delta = float(delta)

    @property
    def cache_token(self) -> dict:
        token = {
            **self._token_header("learning"),
            "delta": self.delta,
            "learner": tester_fingerprint(self.learner),
        }
        # Learning tokens were pinned without a class; the metrics label
        # stays "learning".
        del token["class"]
        return token

    @property
    def elements_per_trial(self) -> int:
        # k*q samples plus k dithered thresholds per run (see
        # FrequencyDitheringLearner.l1_errors_block).
        k = int(getattr(self.learner, "k", 1))
        q = int(getattr(self.learner, "q", 1))
        return max(1, k * (q + 1))

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Single-tile kernel: all learning runs of the block, one
        vectorized ``l1_errors_block`` pass."""
        errors = self.learner.l1_errors_block(distribution, trials, ensure_rng(rng))
        return np.asarray(errors) <= self.delta

    def __repr__(self) -> str:
        return (
            f"LearningSuccessKernel({type(self.learner).__name__}, "
            f"delta={self.delta})"
        )
