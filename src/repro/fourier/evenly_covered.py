"""Evenly-covered multiset combinatorics (Claim 3.1, Prop. 5.2, Lemma 5.5).

The whole lower-bound machinery turns on one combinatorial object: for a
sample vector ``x ∈ [h]^q`` (where ``h = n/2`` is the number of matched
pairs) and an index set ``S ⊆ [q]``, the pair ``(x, S)`` is **evenly
covered** when every value appears an *even* number of times in the multiset
``{x_j}_{j∈S}``.  Claim 3.1 shows these are exactly the surviving Fourier
coefficients of ν_z^q after averaging over z ("odd cancelation"); the proofs
then need:

* Proposition 5.2 — ``|X_S|``, the number of evenly covered ``x`` for a
  fixed ``S``, is at most ``(|S|-1)!! · h^(q - |S|/2)``;
* Lemma 5.5 — moment bounds on ``a_r(x) = #{S : |S| = 2r, (x,S) evenly
  covered}``.

This module computes all of these quantities **exactly** (via a closed-form
recurrence for the evenly-covered tuple count, and enumeration for the
moments) so the inequalities can be verified instance by instance.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb
from typing import Sequence, Union

import numpy as np

from ..exceptions import InvalidParameterError
from .characters import subsets_of_size


def double_factorial(value: int) -> int:
    """N!! — the product of integers from 1 to N with N's parity.

    By convention ``(-1)!! = 0!! = 1`` (the empty product), matching the
    paper's use of ``(|S|-1)!!`` at ``|S| = 0`` in Proposition 5.2.
    """
    if value < -1:
        raise InvalidParameterError(f"double factorial undefined for {value}")
    result = 1
    while value > 1:
        result *= value
        value -= 2
    return result


def is_evenly_covered(x: Union[Sequence[int], np.ndarray], subset_mask: int) -> bool:
    """Whether every value appears an even number of times in {x_j}_{j∈S}.

    ``subset_mask`` encodes S ⊆ [q] as a bitmask over positions of ``x``.
    This predicate is exactly the coefficient ``b_x(S) = E_z[∏_{j∈S} z(x_j)]``
    of Claim 3.1 (1 when evenly covered, else 0).
    """
    values = np.asarray(x, dtype=np.int64)
    if subset_mask < 0 or subset_mask >= (1 << values.size):
        raise InvalidParameterError(
            f"subset_mask {subset_mask} invalid for q={values.size}"
        )
    counts: dict = {}
    for j in range(values.size):
        if (subset_mask >> j) & 1:
            key = int(values[j])
            counts[key] = counts.get(key, 0) + 1
    return all(count % 2 == 0 for count in counts.values())


@lru_cache(maxsize=None)
def evenly_covered_tuple_count(length: int, num_values: int) -> int:
    """E(t, h): tuples in [h]^t in which every value has even multiplicity.

    The combinatorial core of the |X_S| counts that Proposition 5.2
    bounds.  Exact integer recurrence on the number of positions holding
    the last value: ``E(t, h) = Σ_{even m} C(t, m) · E(t-m, h-1)``.
    """
    if length < 0 or num_values < 0:
        raise InvalidParameterError("length and num_values must be >= 0")
    if length == 0:
        return 1
    if num_values == 0:
        return 0
    if length % 2 == 1:
        return 0
    total = 0
    for used in range(0, length + 1, 2):
        total += comb(length, used) * evenly_covered_tuple_count(
            length - used, num_values - 1
        )
    return total


def count_evenly_covered_x(q: int, subset_size: int, half: int) -> int:
    """|X_S| for |S| = subset_size, exactly.

    Positions outside S are free (``half^(q-|S|)`` choices); positions in S
    must form an evenly covered tuple (``E(|S|, half)`` choices).  Only the
    size of S matters, by symmetry (Prop. 5.2 part 1).
    """
    if q < 0 or half < 1:
        raise InvalidParameterError("q must be >= 0 and half >= 1")
    if not 0 <= subset_size <= q:
        raise InvalidParameterError(
            f"subset_size must be in [0,{q}], got {subset_size}"
        )
    return (half ** (q - subset_size)) * evenly_covered_tuple_count(subset_size, half)


def x_s_upper_bound(q: int, subset_size: int, half: int) -> float:
    """Proposition 5.2's bound: ``(|S|-1)!! · half^(q - |S|/2)`` (0 if |S| odd)."""
    if not 0 <= subset_size <= q:
        raise InvalidParameterError(
            f"subset_size must be in [0,{q}], got {subset_size}"
        )
    if subset_size % 2 == 1:
        return 0.0
    return float(double_factorial(subset_size - 1)) * float(half) ** (
        q - subset_size / 2.0
    )


def a_r(x: Union[Sequence[int], np.ndarray], r: int) -> int:
    """a_r(x) = #{S : |S| = 2r and (x, S) is evenly covered} (Lemma 5.5).

    Enumerates all size-2r subsets of positions; intended for small q.
    """
    values = np.asarray(x, dtype=np.int64)
    if r < 0:
        raise InvalidParameterError(f"r must be >= 0, got {r}")
    if 2 * r > values.size:
        return 0
    return sum(
        1
        for mask in subsets_of_size(values.size, 2 * r)
        if is_evenly_covered(values, mask)
    )


def a_r_expectation_exact(q: int, r: int, half: int) -> float:
    """E_x[a_r(x)] exactly: ``C(q, 2r) · E(2r, half) / half^(2r)``.

    The paper's estimate bounds this by ``(q² / n)^r`` with ``n = 2·half``
    (Section 5.1's "moment estimation"); see :func:`a_r_expectation_bound`.
    """
    if 2 * r > q:
        return 0.0
    return comb(q, 2 * r) * evenly_covered_tuple_count(2 * r, half) / float(half) ** (
        2 * r
    )


def a_r_expectation_bound(q: int, r: int, half: int) -> float:
    """Lemma 5.5's bound on E_x[a_r(x)]: ``(q²/n)^r`` with n = 2·half."""
    if q < 0 or r < 0 or half < 1:
        raise InvalidParameterError("q, r must be >= 0 and half >= 1")
    n = 2 * half
    return (q * q / n) ** r


def a_r_moment_exact(q: int, r: int, half: int, moment: int) -> float:
    """E_x[a_r(x)^moment] (the Lemma 5.5 moments) by full enumeration of
    [half]^q — tiny cases only."""
    if moment < 1:
        raise InvalidParameterError(f"moment must be >= 1, got {moment}")
    if half**q > 2**20:
        raise InvalidParameterError(
            f"enumeration infeasible: half^q = {half ** q}"
        )
    total = 0.0
    count = 0
    for x in product(range(half), repeat=q):
        total += float(a_r(x, r)) ** moment
        count += 1
    return total / count


def lemma_5_5_bound(q: int, r: int, half: int, moment: int) -> float:
    """The RHS of Lemma 5.5 for E_x[a_r(x)^m].

    With ``m = moment`` and writing ``ratio = q / sqrt(half)``:

    * if q >= sqrt(half):  ``(4m)^{2mr} · ratio^{2mr}``
    * if q <  sqrt(half):  ``(4m)^{2mr} · ratio^{2r}``
    """
    if q < 0 or r < 0 or half < 1 or moment < 1:
        raise InvalidParameterError("invalid parameters for lemma_5_5_bound")
    ratio = q / np.sqrt(half)
    base = float(4 * moment) ** (2 * moment * r)
    if q >= np.sqrt(half):
        return base * ratio ** (2 * moment * r)
    return base * ratio ** (2 * r)
