"""Differential tests for the vectorised collision and distinct-value
kernels and the log-space birthday bound."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.players import (
    birthday_no_collision_probability,
    collision_counts,
    unique_counts,
)
from repro.exceptions import InvalidParameterError
from tests.oracles import collision_counts_reference, unique_counts_reference


def _exact_counts(matrix: np.ndarray) -> np.ndarray:
    """Independent oracle: count coinciding pairs by brute force."""
    out = []
    for row in matrix:
        total = 0
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                total += int(row[i] == row[j])
        out.append(total)
    return np.asarray(out, dtype=np.int64)


class TestCollisionCountsVectorised:
    @pytest.mark.parametrize("rows,q,n", [(1, 2, 2), (7, 5, 4), (20, 12, 50), (3, 30, 8)])
    def test_matches_reference_on_random_matrices(self, rows, q, n):
        rng = np.random.default_rng(rows * 1000 + q)
        matrix = rng.integers(0, n, size=(rows, q))
        fast = collision_counts(matrix)
        slow = collision_counts_reference(matrix)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, _exact_counts(matrix))

    def test_matches_reference_on_large_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            rows = int(rng.integers(1, 40))
            q = int(rng.integers(2, 25))
            n = int(rng.integers(1, 100))
            matrix = rng.integers(0, n, size=(rows, q))
            assert np.array_equal(
                collision_counts(matrix), collision_counts_reference(matrix)
            )

    def test_all_equal_row(self):
        matrix = np.full((3, 6), 9)
        expected = 6 * 5 // 2
        assert np.array_equal(collision_counts(matrix), [expected] * 3)

    def test_all_distinct_row(self):
        matrix = np.arange(10)[np.newaxis, :]
        assert collision_counts(matrix)[0] == 0

    def test_runs_do_not_leak_across_rows(self):
        """Adjacent rows ending/starting with the same value stay separate."""
        matrix = np.array([[5, 5, 7], [7, 7, 1], [1, 1, 1]])
        assert np.array_equal(collision_counts(matrix), [1, 1, 3])
        assert np.array_equal(collision_counts_reference(matrix), [1, 1, 3])

    def test_single_column_is_zero(self):
        matrix = np.zeros((4, 1), dtype=np.int64)
        assert np.array_equal(collision_counts(matrix), np.zeros(4, dtype=np.int64))

    def test_one_dimensional_input(self):
        assert collision_counts(np.array([2, 2, 2, 3]))[0] == 3

    def test_rejects_bad_ndim(self):
        with pytest.raises(InvalidParameterError):
            collision_counts(np.zeros((2, 2, 2)))

    def test_dtype_is_int64(self):
        matrix = np.random.default_rng(1).integers(0, 4, size=(5, 8))
        assert collision_counts(matrix).dtype == np.int64

    def test_empty_batch(self):
        counts = collision_counts(np.zeros((0, 5), dtype=np.int64))
        assert counts.shape == (0,)
        assert counts.dtype == np.int64

    def test_both_methods_at_the_span_boundary(self):
        """span == q takes the histogram, span == q + 1 the sorted walk."""
        for span in (6, 7):
            matrix = np.array([[0, 0, 0, 3, 3, span - 1], [span - 1] * 6])
            assert np.array_equal(collision_counts(matrix), [4, 15])

    def test_span_wider_than_int64(self):
        low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        matrix = np.array([[low, high, low, high, 0], [high, high, high, low, low]])
        assert np.array_equal(collision_counts(matrix), [2, 4])


_INT64 = np.iinfo(np.int64)

#: Spans at the int16 boundary of the narrowed row sort: ``value − min``
#: fits int16 up to 2**15, and 2**15 + 1 takes the int64 sort.  From
#: 2**16 + 1 on, two values of one row would alias in any 16-bit copy.
_NARROW_EDGE = [2**15 - 1, 2**15, 2**15 + 1, 2**16 + 1]


@st.composite
def _sample_matrices(draw):
    """(rows × q) int64 matrices spanning exactly ``span`` values from
    ``low``: small spans, the int16 sort boundary, negative values and
    the int64 extremes, including empty batches and q ∈ {0, 1, 2}."""
    rows = draw(st.integers(min_value=0, max_value=6))
    q = draw(st.one_of(st.integers(min_value=0, max_value=2), st.integers(3, 40)))
    span = draw(
        st.one_of(st.integers(min_value=1, max_value=120), st.sampled_from(_NARROW_EDGE))
    )
    low = draw(
        st.one_of(
            st.integers(min_value=-50, max_value=50),
            st.sampled_from([_INT64.min, _INT64.max - span + 1]),
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    offsets = np.random.default_rng(seed).integers(0, span, size=(rows, q))
    if offsets.size:
        # Pin both ends in the first row so the matrix's span is the
        # drawn one and a row holds both extremes.
        offsets[0, 0] = 0
        offsets[0, -1] = span - 1
    return offsets + np.int64(low)


@given(matrix=_sample_matrices())
@settings(max_examples=300, deadline=None)
def test_collision_counts_matches_reference(matrix):
    """Both methods (span <= q histogram, span > q sorted walk, the
    latter in int16 up to span 2**15 and in int64 beyond) equal the
    per-column oracle, including empty batches, negative values and
    values at the int64 extremes."""
    fast = collision_counts(matrix)
    assert fast.dtype == np.int64
    assert np.array_equal(fast, collision_counts_reference(matrix))


@given(matrix=_sample_matrices())
@settings(max_examples=300, deadline=None)
def test_unique_counts_matches_reference(matrix):
    """The int16 and int64 row sorts of ``unique_counts`` equal a
    per-row ``set`` on the same matrices."""
    fast = unique_counts(matrix)
    assert fast.dtype == np.int64
    assert np.array_equal(fast, unique_counts_reference(matrix))


class TestBirthdayLogSpace:
    def _product_form(self, n: int, q: int) -> float:
        result = 1.0
        for i in range(q):
            result *= 1.0 - i / n
        return result

    @pytest.mark.parametrize("n,q", [(2, 2), (10, 3), (365, 23), (1000, 40), (50, 50)])
    def test_matches_direct_product(self, n, q):
        assert birthday_no_collision_probability(n, q) == pytest.approx(
            self._product_form(n, q), rel=1e-12
        )

    def test_classic_birthday_paradox_value(self):
        assert birthday_no_collision_probability(365, 23) == pytest.approx(
            0.4927, abs=1e-4
        )

    def test_no_premature_underflow_for_large_inputs(self):
        # The naive product underflows long before lgamma does; the
        # log-space form stays finite and positive here.
        value = birthday_no_collision_probability(10**9, 10_000)
        assert 0.0 < value < 1.0
        expected = math.exp(-10_000 * 9_999 / 2 / 10**9)  # first-order bound
        assert value == pytest.approx(expected, rel=1e-3)

    def test_boundary_cases(self):
        assert birthday_no_collision_probability(5, 0) == 1.0
        assert birthday_no_collision_probability(5, 1) == 1.0
        assert birthday_no_collision_probability(5, 6) == 0.0
        assert birthday_no_collision_probability(4, 4) == pytest.approx(
            self._product_form(4, 4), rel=1e-12
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            birthday_no_collision_probability(0, 2)
        with pytest.raises(InvalidParameterError):
            birthday_no_collision_probability(5, -1)
