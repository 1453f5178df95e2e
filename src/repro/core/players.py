"""Player strategies: how q samples become a one-bit message.

The decisive statistic for uniformity testing is the **collision count**
``K = Σ_v C(c_v, 2)`` over the value counts ``c_v`` of a player's sample
vector: its expectation is ``C(q,2) · ||μ||₂²``, and ε-far distributions
inflate ``||μ||₂²`` by at least ``ε²/n``.  Every tester in this library is a
quantisation of K:

* :class:`DitheredCollisionBitPlayer` — send 0 ("reject") iff K exceeds
  a threshold, with a randomized boundary so any alarm rate is reachable;
  the plain thresholded bit on any comparison graph (K itself is the
  statistic of the complete graph ``K_q``) is
  :class:`~repro.core.graphs.GraphStatisticPlayer`, calibrated by
  :func:`~repro.core.graphs.calibrate_statistic_threshold`;
* :class:`UniqueElementsPlayer` — the distinct-elements alternative
  statistic;
* :class:`SubsetMembershipPlayer` — the hash bit used by single-sample and
  learning protocols.

All strategies implement a vectorised ``respond_batch`` over a
(rows × q) sample matrix, which the Monte Carlo harness relies on.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..distributions.discrete import ROW_BLOCK_ELEMENTS
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng

def _validate_sample_matrix(samples: np.ndarray) -> np.ndarray:
    matrix = np.asarray(samples, dtype=np.int64)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    if matrix.ndim != 2:
        raise InvalidParameterError(f"samples must be 1-d or 2-d, got ndim={matrix.ndim}")
    return matrix


def row_histograms(matrix: np.ndarray, span: int, low: int = 0) -> np.ndarray:
    """Per-row value counts of a (rows × w) int64 matrix with values in
    ``[low, low + span)``: a ``(rows × span)`` int64 array, by one
    ``bincount`` of the flat cells ``row·span + value − low``."""
    rows = matrix.shape[0]
    # value − low < span first, then the row offset: every intermediate
    # stays below rows·span, so no int64 overflow for any ``low``.
    index = matrix - low
    index += np.arange(rows, dtype=np.int64)[:, np.newaxis] * span
    return np.bincount(index.ravel(), minlength=rows * span).reshape(rows, span)


def collision_counts(samples: np.ndarray) -> np.ndarray:
    """Pairwise collision count per row of a (rows × q) sample matrix.

    For a row with value counts ``c_v`` the count is ``Σ_v C(c_v, 2)`` — the
    number of unordered sample pairs that coincide.  Pure NumPy, with the
    method picked from the value span ``max − min + 1`` of the matrix:

    * ``span <= q`` — per-row histograms by an offset ``bincount``, then
      ``Σ C(c, 2)`` per row.  The histograms have ``rows × span <= rows ×
      q`` cells, never more than the input.
    * ``span > q`` — rows are sorted and only the equal-neighbour
      positions ("hits") are visited: a hit at 1-based position ``j`` of
      its run adds ``j`` pairs, and per-row sums are one ``cumsum`` read
      at the row edges.  Collisions are rare when values spread wider
      than the row, so this is O(hits) work after the sort.  When
      ``span <= 2**15`` the rows are sorted as ``matrix − min`` in int16,
      one narrowed copy sorted in place, so the sort moves a quarter of
      the bytes; equal values stay equal and the order is kept, so the
      runs are the same.  Wider spans sort an int64 copy.
    """
    matrix = _validate_sample_matrix(samples)
    rows, q = matrix.shape
    if rows == 0 or q < 2:
        return np.zeros(rows, dtype=np.int64)
    low = int(matrix.min())
    span = int(matrix.max()) - low + 1
    if span <= q:
        return _histogram_collision_counts(matrix, low, span)
    return _sorted_collision_counts(_sorted_rows(matrix, low, span))


def _histogram_collision_counts(matrix: np.ndarray, low: int, span: int) -> np.ndarray:
    """``span <= q`` method of :func:`collision_counts`, in row blocks."""
    rows, q = matrix.shape
    step = min(rows, max(1, ROW_BLOCK_ELEMENTS // q))
    counts = np.empty(rows, dtype=np.int64)
    for start in range(0, rows, step):
        histogram = row_histograms(matrix[start : start + step], span, low)
        # Σ C(c, 2) = (Σ c² − Σ c) / 2, and Σ c = q in every row.
        counts[start : start + step] = ((histogram * histogram).sum(axis=1) - q) // 2
    return counts


#: Largest value span whose offsets ``value − min`` fit in int16.
_INT16_SPAN = 1 << 15


def _sorted_rows(matrix: np.ndarray, low: int, span: int) -> np.ndarray:
    """A fresh copy of ``matrix`` with each row sorted: ``matrix − low``
    in int16 when ``span`` fits, the int64 values otherwise."""
    if span > _INT16_SPAN:
        return np.sort(matrix, axis=1)
    # The int64 difference is cast into the int16 output in buffer-sized
    # pieces, so no int64 temporary of the matrix's size is made.
    ordered = np.empty(matrix.shape, dtype=np.int16)
    np.subtract(matrix, low, out=ordered, casting="unsafe")
    ordered.sort(axis=1)
    return ordered


def _sorted_collision_counts(ordered: np.ndarray) -> np.ndarray:
    """``span > q`` method of :func:`collision_counts`: sparse run walk
    over the row-sorted matrix."""
    rows, q = ordered.shape
    flat = ordered.ravel()
    equal_next = flat[1:] == flat[:-1]
    equal_next[q - 1 :: q] = False  # a pair never straddles a row edge
    hits = np.flatnonzero(equal_next)
    # A hit starts a new run unless it directly follows the previous hit;
    # the cleared row-edge slots keep runs inside their row.
    index = np.arange(hits.size, dtype=np.int64)
    fresh = np.ones(hits.size, dtype=bool)
    fresh[1:] = hits[1:] != hits[:-1] + 1
    run_start = np.maximum.accumulate(np.where(fresh, index, 0))
    totals = np.zeros(hits.size + 1, dtype=np.int64)
    np.cumsum(index - run_start + 1, out=totals[1:])
    edges = np.searchsorted(hits, np.arange(rows + 1, dtype=np.int64) * q)
    return totals[edges[1:]] - totals[edges[:-1]]


def unique_counts(samples: np.ndarray) -> np.ndarray:
    """Number of distinct values per row of a (rows × q) sample matrix."""
    matrix = _validate_sample_matrix(samples)
    rows, q = matrix.shape
    if rows == 0 or q == 0:
        return np.zeros(rows, dtype=np.int64)
    low = int(matrix.min())
    ordered = _sorted_rows(matrix, low, int(matrix.max()) - low + 1)
    changes = (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1)
    return changes + 1


def birthday_no_collision_probability(n: int, q: int) -> float:
    """P[no collision among q uniform samples] = ∏_{i<q} (1 - i/n).

    Evaluated in log-space as ``exp(lgamma(n+1) − lgamma(n−q+1) −
    q·ln n)`` — the falling factorial ``n!/(n−q)!`` over ``n^q`` — so
    large (n, q) neither underflow to zero prematurely nor pay a Python
    product loop.  The closed form lets the threshold-rule tester
    calibrate its referee without Monte Carlo: under U_n the "collision
    bit" rejects with probability exactly ``1 -
    birthday_no_collision_probability(n, q)``.
    """
    if n < 1 or q < 0:
        raise InvalidParameterError(f"need n >= 1 and q >= 0, got n={n}, q={q}")
    if q > n:
        return 0.0
    if q <= 1:
        return 1.0
    log_probability = (
        math.lgamma(n + 1) - math.lgamma(n - q + 1) - q * math.log(n)
    )
    return math.exp(log_probability)


class PlayerStrategy(ABC):
    """Base class: a deterministic-or-randomised map from samples to a bit.

    ``respond_batch`` returns one bit per row (1 = accept).  Strategies that
    need private randomness take an ``rng`` argument; deterministic
    strategies ignore it.

    ``relabel_invariant`` states that the response depends on which
    samples are equal, never on their values (see
    :attr:`~repro.engine.estimate.KernelBase.relabel_invariant`); a
    protocol whose players all declare it is invariant itself.
    """

    relabel_invariant = False

    #: RNG elements ``respond_batch`` draws per row, beyond the samples.
    draws_per_response = 0

    @abstractmethod
    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """(rows × q) sample matrix → length-rows 0/1 vector."""

    def respond(self, samples: Sequence[int], rng: RngLike = None) -> int:
        """Single-shot response to one sample vector."""
        return int(self.respond_batch(np.asarray(samples, dtype=np.int64), rng)[0])

    @property
    def name(self) -> str:
        """Human-readable strategy name (used in experiment reports)."""
        return type(self).__name__


class DitheredCollisionBitPlayer(PlayerStrategy):
    """Collision bit with a randomized boundary, hitting any alarm rate.

    Alarms (sends 0) when ``K > t``; at ``K == t`` it alarms with
    probability ``boundary_probability``.  Because the collision count is
    integer-valued, deterministic thresholds can only realise a discrete
    set of alarm rates — the dither interpolates between them, which the
    forced-T threshold tester needs for exact completeness calibration.
    """

    relabel_invariant = True
    draws_per_response = 1  # the boundary coin

    def __init__(self, threshold: int, boundary_probability: float):
        if threshold < 0:
            raise InvalidParameterError(f"threshold must be >= 0, got {threshold}")
        if not 0.0 <= boundary_probability <= 1.0:
            raise InvalidParameterError(
                f"boundary_probability must be in [0,1], got {boundary_probability}"
            )
        self.threshold = int(threshold)
        self.boundary_probability = float(boundary_probability)

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        generator = ensure_rng(rng)
        counts = collision_counts(samples)
        alarms = counts > self.threshold
        boundary = counts == self.threshold
        if self.boundary_probability > 0.0 and boundary.any():
            coin = generator.random(boundary.shape) < self.boundary_probability
            alarms = alarms | (boundary & coin)
        return (~alarms).astype(np.int64)

    @property
    def name(self) -> str:
        return (
            f"DitheredCollisionBitPlayer(t={self.threshold}, "
            f"gamma={self.boundary_probability:.3f})"
        )


class UniqueElementsPlayer(PlayerStrategy):
    """Accept iff at least ``min_unique`` distinct values were observed.

    The distinct-elements statistic is an alternative to collision counting
    with the same first-order signal (far distributions repeat more).
    """

    def __init__(self, min_unique: int):
        if min_unique < 0:
            raise InvalidParameterError(f"min_unique must be >= 0, got {min_unique}")
        self.min_unique = int(min_unique)

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        return (unique_counts(samples) >= self.min_unique).astype(np.int64)

    @property
    def name(self) -> str:
        return f"UniqueElementsPlayer(min_unique={self.min_unique})"


class ConstantPlayer(PlayerStrategy):
    """Always send the same bit (degenerate baseline for sanity checks)."""

    relabel_invariant = True

    def __init__(self, bit: int):
        if bit not in (0, 1):
            raise InvalidParameterError(f"bit must be 0 or 1, got {bit}")
        self.bit = int(bit)

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        matrix = np.asarray(samples)
        rows = matrix.shape[0] if matrix.ndim == 2 else 1
        return np.full(rows, self.bit, dtype=np.int64)


class RandomBitPlayer(PlayerStrategy):
    """Send 1 with probability ``bias``, ignoring the samples entirely.

    The information-less baseline: no referee rule can distinguish anything
    from these bits, which the integration tests verify.
    """

    draws_per_response = 1

    def __init__(self, bias: float = 0.5):
        if not 0.0 <= bias <= 1.0:
            raise InvalidParameterError(f"bias must be in [0,1], got {bias}")
        self.bias = float(bias)

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        generator = ensure_rng(rng)
        matrix = np.asarray(samples)
        rows = matrix.shape[0] if matrix.ndim == 2 else 1
        return (generator.random(rows) < self.bias).astype(np.int64)


class SubsetMembershipPlayer(PlayerStrategy):
    """Send 1 iff the (single) sample lies in a fixed subset.

    The building block of single-sample protocols: with a public random
    subset per player, the referee learns a noisy linear measurement of the
    unknown distribution.  With ``q > 1`` samples the bit reports whether
    *any* sample hit the subset.
    """

    def __init__(self, indicator: Sequence[int]):
        array = np.asarray(indicator, dtype=np.int64)
        if array.ndim != 1 or array.size == 0:
            raise InvalidParameterError("indicator must be a non-empty 1-d 0/1 vector")
        if not np.all((array == 0) | (array == 1)):
            raise InvalidParameterError("indicator entries must be 0 or 1")
        self.indicator = array

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        matrix = np.asarray(samples, dtype=np.int64)
        if matrix.ndim == 1:
            matrix = matrix[np.newaxis, :]
        if matrix.size and (matrix.min() < 0 or matrix.max() >= self.indicator.size):
            raise InvalidParameterError(
                "sample outside the subset indicator's domain"
            )
        hits = self.indicator[matrix]
        return (hits.max(axis=1) if matrix.shape[1] else np.zeros(matrix.shape[0], dtype=np.int64)).astype(np.int64)
