"""Unit and property tests for DiscreteDistribution."""

from __future__ import annotations

import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphs import complete_graph, cycle_graph, graph_statistic_block
from repro.core.players import collision_counts, unique_counts
from repro.distributions import DiscreteDistribution, point_mass, uniform
from repro.distributions.discrete import ROW_BLOCK_ELEMENTS
from repro.exceptions import (
    DimensionMismatchError,
    InvalidDistributionError,
    InvalidParameterError,
)


class TestConstruction:
    def test_valid_pmf(self):
        dist = DiscreteDistribution([0.5, 0.25, 0.25])
        assert dist.n == 3
        assert dist.probability(0) == pytest.approx(0.5)

    def test_rejects_negative_mass(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([0.5, -0.1, 0.6])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([0.5, 0.25])

    def test_rejects_empty(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([])

    def test_rejects_nan(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([0.5, float("nan"), 0.5])

    def test_rejects_2d(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([[0.5, 0.5]])

    def test_normalize_rescales(self):
        dist = DiscreteDistribution([2.0, 2.0], normalize=True)
        assert dist.probability(0) == pytest.approx(0.5)

    def test_normalize_rejects_zero_vector(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([0.0, 0.0], normalize=True)

    def test_pmf_is_read_only(self):
        dist = uniform(4)
        with pytest.raises(ValueError):
            dist.pmf[0] = 0.9

    def test_uniform_factory(self):
        dist = uniform(10)
        assert np.allclose(dist.pmf, 1.0 / 10)
        assert dist.n == 10

    def test_uniform_rejects_nonpositive_n(self):
        with pytest.raises(InvalidParameterError):
            uniform(0)

    def test_point_mass(self):
        dist = point_mass(5, 3)
        assert dist.probability(3) == 1.0
        assert dist.support().tolist() == [3]

    def test_point_mass_rejects_bad_outcome(self):
        with pytest.raises(InvalidParameterError):
            point_mass(5, 5)


class TestMoments:
    def test_l2_norm_squared_uniform_is_minimal(self):
        assert uniform(8).l2_norm_squared() == pytest.approx(1.0 / 8)

    def test_l2_norm_squared_point_mass_is_one(self):
        assert point_mass(8, 0).l2_norm_squared() == pytest.approx(1.0)

    def test_entropy_uniform(self):
        assert uniform(8).entropy() == pytest.approx(3.0)

    def test_entropy_point_mass(self):
        assert point_mass(8, 2).entropy() == pytest.approx(0.0)

    def test_expectation(self):
        dist = DiscreteDistribution([0.5, 0.5])
        assert dist.expectation([0.0, 10.0]) == pytest.approx(5.0)

    def test_expectation_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            uniform(3).expectation([1.0, 2.0])


class TestSampling:
    def test_sample_shape_and_dtype(self, rng):
        samples = uniform(8).sample(100, rng)
        assert samples.shape == (100,)
        assert samples.dtype == np.int64

    def test_sample_range(self, rng):
        samples = uniform(8).sample(1000, rng)
        assert samples.min() >= 0
        assert samples.max() < 8

    def test_sample_zero(self):
        assert uniform(8).sample(0).shape == (0,)

    def test_sample_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            uniform(8).sample(-1)

    def test_sample_respects_point_mass(self, rng):
        samples = point_mass(8, 5).sample(50, rng)
        assert (samples == 5).all()

    def test_sample_matrix_shape(self, rng):
        matrix = uniform(8).sample_matrix(10, 7, rng)
        assert matrix.shape == (10, 7)

    @pytest.mark.parametrize("rows, cols", [(-2, -3), (-1, 4), (4, -1)])
    def test_sample_matrix_negative_rejected_before_drawing(self, rows, cols):
        generator = np.random.default_rng(3)
        with pytest.raises(InvalidParameterError):
            uniform(8).sample_matrix(rows, cols, generator)
        assert generator.random() == np.random.default_rng(3).random()

    def test_sampling_is_deterministic_given_seed(self):
        a = uniform(32).sample(20, 7)
        b = uniform(32).sample(20, 7)
        assert np.array_equal(a, b)

    def test_empirical_frequencies_converge(self, rng):
        dist = DiscreteDistribution([0.7, 0.2, 0.1])
        samples = dist.sample(40_000, rng)
        freq = np.bincount(samples, minlength=3) / 40_000
        assert np.allclose(freq, dist.pmf, atol=0.02)


class TestArithmetic:
    def test_tensor_power_uniform(self):
        squared = uniform(3).tensor_power(2)
        assert squared.n == 9
        assert np.allclose(squared.pmf, 1.0 / 9)

    def test_tensor_power_encoding_order(self):
        dist = DiscreteDistribution([0.9, 0.1])
        squared = dist.tensor_power(2)
        # index = 2*e1 + e2 with e1 most significant
        assert squared.probability(0) == pytest.approx(0.81)
        assert squared.probability(1) == pytest.approx(0.09)
        assert squared.probability(2) == pytest.approx(0.09)
        assert squared.probability(3) == pytest.approx(0.01)

    def test_equality_and_hash(self):
        assert uniform(4) == uniform(4)
        assert hash(uniform(4)) == hash(uniform(4))
        assert uniform(4) != uniform(5)


@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=32
    )
)
@settings(max_examples=60, deadline=None)
def test_normalized_pmf_always_valid(weights):
    """Any positive weight vector normalises to a valid distribution."""
    dist = DiscreteDistribution(weights, normalize=True)
    assert dist.pmf.sum() == pytest.approx(1.0)
    assert (dist.pmf >= 0).all()


@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=16
    ),
    q=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_tensor_power_preserves_l2_structure(weights, q):
    """||p^q||₂² = (||p||₂²)^q — products multiply collision probabilities."""
    dist = DiscreteDistribution(weights, normalize=True)
    if dist.n**q > 5000:
        return
    power = dist.tensor_power(q)
    assert power.l2_norm_squared() == pytest.approx(
        dist.l2_norm_squared() ** q, rel=1e-9
    )


def _binary_search_draws(dist, size, seed):
    """The plain inverse-CDF draws the guide-table sampler must reproduce."""
    cdf = np.cumsum(dist.pmf)
    cdf[-1] = 1.0
    uniforms = np.random.default_rng(seed).random(size)
    return np.searchsorted(cdf, uniforms, side="right")


def _state_after_uniforms(size, seed):
    """The generator state after ``size`` plain uniforms from ``seed``."""
    generator = np.random.default_rng(seed)
    generator.random(size)
    return generator.bit_generator.state


def _zero_runs(draw, weights):
    """Zero out one run of ``weights`` at its start, middle or end."""
    n = len(weights)
    length = draw(st.integers(min_value=1, max_value=max(1, n - 1)))
    start = draw(st.sampled_from([0, (n - length) // 2, n - length]))
    weights[start : start + length] = [0.0] * length
    if not any(weights):
        weights[-1 if start == 0 else 0] = 1.0
    return weights


@st.composite
def _pmfs(draw):
    kind = draw(
        st.sampled_from(
            ["weights", "zero_runs", "point_mass", "padded", "power_law", "single"]
        )
    )
    if kind == "single":
        return DiscreteDistribution([1.0])
    if kind == "point_mass":
        n = draw(st.integers(min_value=1, max_value=300))
        return point_mass(n, draw(st.integers(min_value=0, max_value=n - 1)))
    if kind == "padded":
        n = draw(st.integers(min_value=1, max_value=200))
        extra = draw(st.integers(min_value=0, max_value=40))
        return uniform(n).padded_to(n + extra + (n + extra + 1) % 2)
    if kind == "power_law":
        n = draw(st.integers(min_value=1, max_value=2000))
        alpha = draw(st.floats(min_value=0.0, max_value=3.0))
        return DiscreteDistribution(1.0 / np.arange(1, n + 1) ** alpha, normalize=True)
    weights = draw(
        st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=64)
    )
    if kind == "zero_runs":
        weights = _zero_runs(draw, weights)
    return DiscreteDistribution(weights, normalize=True)


@given(
    dist=_pmfs(),
    size=st.integers(min_value=1, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_sample_is_bit_identical_to_binary_search(dist, size, seed):
    """The guide table changes the cost of a draw, never its value, and a
    draw consumes exactly one uniform per sample."""
    generator = np.random.default_rng(seed)
    draws = dist.sample(size, generator)
    assert draws.dtype == np.int64
    assert np.array_equal(draws, _binary_search_draws(dist, size, seed))
    assert generator.bit_generator.state == _state_after_uniforms(size, seed)


def test_straddling_buckets_match_binary_search():
    """A non-dyadic pmf on n = 1000 has cdf points strictly inside
    buckets; those draws take the searchsorted fallback on ``u`` divided
    back out of bucket units, and still equal the binary search."""
    dist = DiscreteDistribution(1.0 / np.arange(1, 1001) ** 0.7, normalize=True)
    generator = np.random.default_rng(5)
    draws = dist.sample(200_000, generator)
    straddling = np.flatnonzero(dist._guide < 0)
    assert 0 < straddling.size <= dist.n - 1
    buckets = (np.random.default_rng(5).random(200_000) * dist._guide.size).astype(int)
    assert np.isin(buckets, straddling).sum() > 1000  # the fallback really ran
    assert np.array_equal(draws, _binary_search_draws(dist, 200_000, 5))
    assert generator.bit_generator.state == _state_after_uniforms(200_000, 5)


def test_sample_matches_binary_search_when_cumsum_drifts_above_one():
    dist = uniform(9).padded_to(10)
    assert np.cumsum(dist.pmf)[-2] > 1.0  # the forced cdf[-1] = 1.0 is not the max
    assert np.array_equal(dist.sample(50_000, 11), _binary_search_draws(dist, 50_000, 11))


def test_pickled_distribution_keeps_its_draws():
    """The process and shm backends ship distributions after sampling from them."""
    dist = DiscreteDistribution(1.0 / np.arange(1, 301), normalize=True)
    first = dist.sample(5000, 1)
    clone = pickle.loads(pickle.dumps(dist))
    assert clone == dist
    assert np.array_equal(clone.sample(5000, 1), first)
    assert np.array_equal(clone.sample(7000, 2), _binary_search_draws(dist, 7000, 2))


class TestSampleStatistic:
    """``sample_statistic`` draws and reduces in row blocks; rows and the
    generator state afterwards equal one ``sample_matrix`` call followed
    by the statistic."""

    @staticmethod
    def _pin(dist, rows, cols, statistic, seed=3):
        blocked_rng = np.random.default_rng(seed)
        blocked = dist.sample_statistic(rows, cols, statistic, blocked_rng)
        whole_rng = np.random.default_rng(seed)
        whole = statistic(dist.sample_matrix(rows, cols, whole_rng))
        assert blocked.dtype == whole.dtype
        assert np.array_equal(blocked, whole)
        assert blocked_rng.bit_generator.state == whole_rng.bit_generator.state
        return blocked

    def test_rows_not_a_multiple_of_the_block(self):
        cols = 100
        step = ROW_BLOCK_ELEMENTS // cols
        rows = 3 * step + 17
        counts = self._pin(uniform(1024), rows, cols, collision_counts)
        assert counts.shape == (rows,)

    def test_rows_wider_than_the_block_are_one_row_per_block(self):
        cols = ROW_BLOCK_ELEMENTS + 3
        calls = []

        def statistic(samples):
            calls.append(samples.shape)
            return collision_counts(samples)

        self._pin(uniform(1 << 20), 3, cols, statistic)
        assert calls[:3] == [(1, cols)] * 3  # blocked draw, then the whole one

    @pytest.mark.parametrize("mode", ["edges", "distinct"])
    @pytest.mark.parametrize("graph", [complete_graph(40), cycle_graph(40)], ids=repr)
    def test_graph_statistics_in_both_modes(self, graph, mode):
        far = DiscreteDistribution(1.0 / np.arange(1, 65) ** 0.5, normalize=True)
        for dist in (uniform(64), far):
            self._pin(dist, 4000, 40, functools.partial(graph_statistic_block, graph, mode=mode))

    def test_a_small_draw_is_one_call(self):
        calls = []

        def statistic(samples):
            calls.append(samples.shape)
            return unique_counts(samples)

        self._pin(uniform(16), 10, 8, statistic)
        assert calls == [(10, 8), (10, 8)]

    def test_empty_and_invalid_sizes(self):
        counts = uniform(8).sample_statistic(0, 5, collision_counts, 0)
        assert counts.shape == (0,)
        with pytest.raises(InvalidParameterError):
            uniform(8).sample_statistic(-1, 5, collision_counts, 0)
