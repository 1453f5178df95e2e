"""The :class:`DiscreteDistribution` value type.

A distribution over the domain ``{0, ..., n-1}`` is represented by a
validated, immutable probability vector.  The class offers:

* vectorised sampling through a caller-supplied numpy generator (so every
  player in a simulated network can hold an independent stream);
* exact arithmetic (zero-mass padding, tensor powers) used by the
  hard-instance constructions;
* moment/collision statistics (``l2_norm_squared`` drives the collision
  testers of Fischer–Meir–Oshman).

The pmf vector is copied on construction and marked read-only; instances are
hashable on their bytes and safe to share across players.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..exceptions import (
    DimensionMismatchError,
    InvalidDistributionError,
    InvalidParameterError,
)
from ..rng import RngLike, ensure_rng

#: Tolerance used when validating that a pmf sums to one.
PMF_SUM_ATOL = 1e-9

#: Elements per row block when a sample matrix is drawn or reduced in
#: pieces: a block's int64 array (512 KiB) stays cache-resident, where
#: one array for the whole matrix would be fresh memory on every call.
ROW_BLOCK_ELEMENTS = 1 << 16


class DiscreteDistribution:
    """An immutable probability distribution on ``{0, ..., n-1}``.

    Parameters
    ----------
    pmf:
        Non-negative weights summing to one (within ``PMF_SUM_ATOL``).
    normalize:
        If true, rescale non-negative weights to sum to one instead of
        rejecting them.

    Examples
    --------
    >>> d = DiscreteDistribution([0.5, 0.25, 0.25])
    >>> d.n
    3
    >>> d.probability(0)
    0.5
    """

    __slots__ = ("_pmf", "_cumulative", "_guide")

    def __init__(self, pmf: Union[Sequence[float], np.ndarray], *, normalize: bool = False):
        array = np.asarray(pmf, dtype=np.float64)
        if array.ndim != 1 or array.size == 0:
            raise InvalidDistributionError(
                f"pmf must be a non-empty 1-d array, got shape {array.shape}"
            )
        if np.any(~np.isfinite(array)):
            raise InvalidDistributionError("pmf contains non-finite entries")
        if np.any(array < -PMF_SUM_ATOL):
            raise InvalidDistributionError(
                f"pmf contains negative mass (min={array.min():.3g})"
            )
        array = np.clip(array, 0.0, None)
        total = float(array.sum())
        if normalize:
            if total <= 0.0:
                raise InvalidDistributionError("cannot normalize an all-zero pmf")
            array = array / total
        elif abs(total - 1.0) > PMF_SUM_ATOL * max(1.0, array.size):
            raise InvalidDistributionError(
                f"pmf sums to {total!r}, expected 1.0 (pass normalize=True to rescale)"
            )
        else:
            array = array / total  # remove rounding drift exactly
        array.setflags(write=False)
        self._pmf = array
        self._cumulative: Optional[np.ndarray] = None
        self._guide: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # basic accessors                                                    #
    # ------------------------------------------------------------------ #

    @property
    def pmf(self) -> np.ndarray:
        """The read-only probability vector."""
        return self._pmf

    @property
    def n(self) -> int:
        """Domain size."""
        return int(self._pmf.size)

    def probability(self, outcome: int) -> float:
        """Probability of a single outcome."""
        if not 0 <= outcome < self.n:
            raise InvalidParameterError(f"outcome {outcome} outside domain [0, {self.n})")
        return float(self._pmf[outcome])

    def support(self) -> np.ndarray:
        """Indices with strictly positive mass."""
        return np.flatnonzero(self._pmf > 0.0)

    # ------------------------------------------------------------------ #
    # moments and norms                                                  #
    # ------------------------------------------------------------------ #

    def l2_norm_squared(self) -> float:
        """``sum_i p_i^2`` — the collision probability of two iid samples.

        The uniform distribution minimises this at ``1/n``; an ε-far (in ℓ1)
        distribution has ``l2_norm_squared() >= (1 + ε²)/n``, which is the
        signal every collision-based tester detects.
        """
        return float(np.dot(self._pmf, self._pmf))

    def entropy(self, base: float = 2.0) -> float:
        """Shannon entropy in the given base."""
        positive = self._pmf[self._pmf > 0]
        return float(-(positive * (np.log(positive) / np.log(base))).sum())

    def expectation(self, values: Sequence[float]) -> float:
        """Expected value of ``values[X]`` for ``X ~ self``."""
        array = np.asarray(values, dtype=np.float64)
        if array.shape != self._pmf.shape:
            raise DimensionMismatchError(
                f"values has shape {array.shape}, expected {self._pmf.shape}"
            )
        return float(np.dot(array, self._pmf))

    # ------------------------------------------------------------------ #
    # sampling                                                           #
    # ------------------------------------------------------------------ #

    def sample(self, size: int, rng: RngLike = None) -> np.ndarray:
        """Draw ``size`` iid samples as an int64 array.

        Inverse-CDF sampling: each sample is
        ``searchsorted(cdf, u, side="right")`` for one uniform ``u``.  A
        guide table (Chen–Asau indexed search) answers most draws without
        the binary search: ``[0, 1)`` is cut into ``m`` equal buckets
        (``m`` the smallest power of two ``>= 4n``), and a bucket with no
        cdf point strictly inside it maps every ``u`` it holds to one
        stored answer.  Only draws landing in the at most ``n - 1``
        straddling buckets reach ``searchsorted``, so the result is
        bit-identical to a plain binary search over the same uniforms.

        The uniforms are scaled to bucket units in place and the table is
        gathered into the bucket-index array, so a draw holds two
        full-size arrays.  Scaling by the power of two ``m`` is exact, and
        the straddle fallback divides ``u`` back out unchanged.
        """
        if size < 0:
            raise InvalidParameterError(f"size must be >= 0, got {size}")
        generator = ensure_rng(rng)
        if size == 0:
            return np.empty(0, dtype=np.int64)
        cumulative, guide = self._cumulative, self._guide
        if cumulative is None or guide is None:
            cumulative = np.cumsum(self._pmf)
            cumulative[-1] = 1.0
            cumulative.setflags(write=False)
            buckets = 1 << (4 * self.n - 1).bit_length()
            edges = np.arange(buckets + 1) / buckets  # exact: buckets is 2**k
            low = np.searchsorted(cumulative, edges[:-1], side="right")
            high = np.searchsorted(cumulative, edges[1:], side="left")
            guide = np.where(low == high, low, -1).astype(np.int64)
            guide.setflags(write=False)
            self._cumulative, self._guide = cumulative, guide
        scaled = generator.random(size)
        scaled *= guide.size
        draws = scaled.astype(np.int64)
        # Every index lies in [0, m), so "clip" never clips; unlike the
        # default "raise" it gathers straight into ``out`` without a copy.
        np.take(guide, draws, out=draws, mode="clip")
        straddle = np.flatnonzero(draws < 0)
        if straddle.size:
            draws[straddle] = np.searchsorted(
                cumulative, scaled[straddle] / guide.size, side="right"
            )
        return draws

    def sample_matrix(self, rows: int, cols: int, rng: RngLike = None) -> np.ndarray:
        """Draw a ``rows x cols`` matrix of iid samples (players x queries)."""
        if rows < 0 or cols < 0:
            raise InvalidParameterError(
                f"rows and cols must be >= 0, got {rows} x {cols}"
            )
        flat = self.sample(rows * cols, rng)
        return flat.reshape(rows, cols)

    def sample_statistic(
        self,
        rows: int,
        cols: int,
        statistic: Callable[[np.ndarray], np.ndarray],
        rng: RngLike = None,
    ) -> np.ndarray:
        """``statistic(self.sample_matrix(rows, cols, rng))``, drawn and
        reduced in row blocks of about :data:`ROW_BLOCK_ELEMENTS` samples.

        ``statistic`` maps a ``(block × cols)`` sample matrix to one value
        per row.  Each block is one ``sample_matrix`` call on the same
        generator, and successive ``generator.random`` calls continue its
        stream exactly, so the per-row values and the generator state
        afterwards are those of the single whole-matrix draw, while no
        sample array larger than one block (or one row, for rows wider
        than a block) is allocated.  This is how the Monte-Carlo
        calibrators sample.
        """
        generator = ensure_rng(rng)
        step = max(1, ROW_BLOCK_ELEMENTS // max(cols, 1))
        if rows <= step:
            return statistic(self.sample_matrix(rows, cols, generator))
        return np.concatenate(
            [
                statistic(self.sample_matrix(min(step, rows - start), cols, generator))
                for start in range(0, rows, step)
            ]
        )

    # ------------------------------------------------------------------ #
    # exact arithmetic                                                   #
    # ------------------------------------------------------------------ #

    def padded_to(self, n: int) -> "DiscreteDistribution":
        """Embed into the larger domain ``{0, ..., n-1}`` with zero mass.

        The appended elements carry no probability, so sampling draws are
        bit-identical to the unpadded distribution's — only the domain
        label changes.  Used to align adversarial instances built on an
        even sub-domain with a tester whose universe size is odd.
        """
        if n < self.n:
            raise InvalidParameterError(
                f"cannot pad a distribution on {self.n} outcomes down to {n}"
            )
        if n == self.n:
            return self
        return DiscreteDistribution(
            np.concatenate([self._pmf, np.zeros(n - self.n)])
        )

    def tensor_power(self, q: int) -> "DiscreteDistribution":
        """The distribution of ``q`` iid samples, on domain ``n**q``.

        Outcome ``(x_1, ..., x_q)`` is encoded in base ``n`` with ``x_1`` the
        most significant digit.  Only practical for small ``n**q``; used by
        the exact lemma-verification engines.
        """
        if q < 1:
            raise InvalidParameterError(f"q must be >= 1, got {q}")
        result = self._pmf
        for _ in range(q - 1):
            result = np.outer(result, self._pmf).ravel()
        return DiscreteDistribution(result)

    # ------------------------------------------------------------------ #
    # dunder protocol                                                    #
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._pmf, other._pmf))

    def __hash__(self) -> int:
        return hash(self._pmf.tobytes())

    def __repr__(self) -> str:
        head = np.array2string(self._pmf[:4], precision=4, separator=", ")
        suffix = ", ..." if self.n > 4 else ""
        return f"DiscreteDistribution(n={self.n}, pmf={head[:-1]}{suffix}])"


def uniform(n: int) -> DiscreteDistribution:
    """The uniform distribution U_n on ``{0, ..., n-1}``."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    return DiscreteDistribution(np.full(n, 1.0 / n))


def point_mass(n: int, outcome: int) -> DiscreteDistribution:
    """The degenerate distribution putting all mass on ``outcome``."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if not 0 <= outcome < n:
        raise InvalidParameterError(f"outcome {outcome} outside domain [0, {n})")
    pmf = np.zeros(n)
    pmf[outcome] = 1.0
    return DiscreteDistribution(pmf)
