"""Tests for player strategies and collision statistics."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstantPlayer,
    GraphStatisticPlayer,
    SubsetMembershipPlayer,
    UniqueElementsPlayer,
    birthday_no_collision_probability,
    calibrate_dithered_statistic,
    calibrate_statistic_threshold,
    collision_counts,
    complete_graph,
)
from repro.core.players import DitheredCollisionBitPlayer, unique_counts
from repro.distributions import point_mass, uniform
from repro.exceptions import InvalidParameterError


def _respond(player, samples):
    """The bit one player sends for one sample vector."""
    return int(player.respond_batch(np.array([samples], dtype=np.int64))[0])


class TestCollisionCounts:
    def test_no_collision(self):
        assert collision_counts(np.array([[1, 2, 3]]))[0] == 0

    def test_single_pair(self):
        assert collision_counts(np.array([[1, 1, 3]]))[0] == 1

    def test_triple_value(self):
        # three equal samples → C(3,2) = 3 pairs
        assert collision_counts(np.array([[7, 7, 7]]))[0] == 3

    def test_two_runs(self):
        assert collision_counts(np.array([[1, 1, 2, 2, 2]]))[0] == 1 + 3

    def test_order_invariance(self, rng):
        row = rng.integers(0, 5, size=12)
        shuffled = rng.permutation(row)
        assert collision_counts(row[np.newaxis, :])[0] == collision_counts(
            shuffled[np.newaxis, :]
        )[0]

    def test_q_below_two(self):
        assert collision_counts(np.array([[5]]))[0] == 0
        assert collision_counts(np.empty((3, 0), dtype=np.int64)).tolist() == [0, 0, 0]

    def test_1d_input(self):
        assert collision_counts(np.array([2, 2]))[0] == 1

    def test_matches_bincount_formula(self, rng):
        samples = rng.integers(0, 6, size=(50, 8))
        fast = collision_counts(samples)
        for row_index in range(50):
            counts = np.bincount(samples[row_index])
            expected = sum(comb(int(c), 2) for c in counts)
            assert fast[row_index] == expected


class TestUniqueCounts:
    def test_all_distinct(self):
        assert unique_counts(np.array([[1, 2, 3]]))[0] == 3

    def test_all_same(self):
        assert unique_counts(np.array([[4, 4, 4]]))[0] == 1

    def test_empty(self):
        assert unique_counts(np.empty((2, 0), dtype=np.int64)).tolist() == [0, 0]

    def test_rejects_3d_input_like_collision_counts(self):
        cube = np.zeros((2, 3, 4), dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            collision_counts(cube)
        with pytest.raises(InvalidParameterError):
            unique_counts(cube)


class TestBirthdayFormula:
    def test_exact_small_case(self):
        # P(no collision, q=2) = 1 - 1/n
        assert birthday_no_collision_probability(10, 2) == pytest.approx(0.9)

    def test_q_exceeds_n(self):
        assert birthday_no_collision_probability(4, 5) == 0.0

    def test_q_zero_or_one(self):
        assert birthday_no_collision_probability(10, 0) == 1.0
        assert birthday_no_collision_probability(10, 1) == 1.0

    def test_against_monte_carlo(self, rng):
        n, q = 32, 8
        counts = collision_counts(uniform(n).sample_matrix(20_000, q, rng))
        empirical = float((counts == 0).mean())
        assert empirical == pytest.approx(
            birthday_no_collision_probability(n, q), abs=0.02
        )


class TestCollisionBitPlayer:
    """The collision bit ``K <= t``: the graph player on ``K_q``."""

    def test_accepts_when_below_threshold(self):
        player = GraphStatisticPlayer(complete_graph(3), 0)
        assert _respond(player, [1, 2, 3]) == 1
        assert _respond(player, [1, 1, 3]) == 0

    def test_fractional_threshold(self):
        player = GraphStatisticPlayer(complete_graph(3), 1.5)
        assert _respond(player, [1, 1, 3]) == 1   # 1 collision <= 1.5
        assert _respond(player, [1, 1, 1]) == 0   # 3 collisions > 1.5

    def test_rejects_negative_threshold(self):
        with pytest.raises(InvalidParameterError):
            GraphStatisticPlayer(complete_graph(3), -1)


class TestDitheredPlayer:
    def test_deterministic_extremes(self, rng):
        samples = np.array([[1, 1, 3]])  # K = 1
        never = DitheredCollisionBitPlayer(threshold=1, boundary_probability=0.0)
        always = DitheredCollisionBitPlayer(threshold=1, boundary_probability=1.0)
        assert never.respond_batch(samples, rng)[0] == 1
        assert always.respond_batch(samples, rng)[0] == 0

    def test_boundary_rate(self, rng):
        samples = np.tile(np.array([[2, 2, 5]]), (4000, 1))  # K = 1 each row
        player = DitheredCollisionBitPlayer(threshold=1, boundary_probability=0.3)
        bits = player.respond_batch(samples, rng)
        assert (1.0 - bits.mean()) == pytest.approx(0.3, abs=0.03)

    def test_calibration_achieves_target(self, rng):
        n, q, target = 64, 16, 0.2
        t, gamma, achieved = calibrate_dithered_statistic(
            complete_graph(q), n, target, trials=6000, rng=rng
        )
        assert achieved == pytest.approx(target, abs=0.02)
        player = DitheredCollisionBitPlayer(t, gamma)
        bits = player.respond_batch(uniform(n).sample_matrix(6000, q, rng), rng)
        assert (1.0 - bits.mean()) == pytest.approx(target, abs=0.03)


class TestCalibration:
    def test_exact_zero_threshold_when_possible(self):
        # With tiny q the birthday tail is already below a generous target.
        t, p = calibrate_statistic_threshold(complete_graph(2), 1024, 0.5, rng=0)
        assert t == 0
        assert p == pytest.approx(1.0 / 1024)

    def test_threshold_grows_as_target_shrinks(self):
        t_loose, _ = calibrate_statistic_threshold(complete_graph(16), 64, 0.5, rng=0)
        t_tight, _ = calibrate_statistic_threshold(complete_graph(16), 64, 0.01, rng=0)
        assert t_tight >= t_loose

    def test_achieved_rate_respects_target(self, rng):
        n, q, target = 64, 16, 0.1
        t, estimate = calibrate_statistic_threshold(
            complete_graph(q), n, target, trials=4000, rng=0
        )
        counts = collision_counts(uniform(n).sample_matrix(8000, q, rng))
        actual = float((counts > t).mean())
        assert actual <= target + 0.03

    def test_rejects_bad_target(self):
        with pytest.raises(InvalidParameterError):
            calibrate_statistic_threshold(complete_graph(4), 16, 0.0)


class TestSimplePlayers:
    def test_constant(self):
        assert _respond(ConstantPlayer(1), [1, 2]) == 1
        assert _respond(ConstantPlayer(0), [1, 2]) == 0

    def test_constant_rejects_non_bit(self):
        with pytest.raises(InvalidParameterError):
            ConstantPlayer(2)

    def test_unique_elements(self):
        player = UniqueElementsPlayer(min_unique=3)
        assert _respond(player, [1, 2, 3]) == 1
        assert _respond(player, [1, 1, 2]) == 0

    def test_subset_membership_any_hit(self):
        player = SubsetMembershipPlayer([1, 0, 0, 1])
        assert _respond(player, [1, 2]) == 0
        assert _respond(player, [1, 3]) == 1

    def test_subset_membership_rejects_out_of_domain(self):
        player = SubsetMembershipPlayer([1, 0])
        with pytest.raises(InvalidParameterError):
            _respond(player, [5])

    def test_subset_membership_rejects_negative_samples(self):
        # NumPy would read -4 as the last-but-three entry (here entry 0).
        player = SubsetMembershipPlayer([1, 0, 0, 0])
        with pytest.raises(InvalidParameterError):
            _respond(player, [-4])
        with pytest.raises(InvalidParameterError):
            player.respond_batch(np.array([[0, 1], [2, -1]]))


def _threshold_rule_path():
    from repro.core.testers import ThresholdRuleTester

    tester = ThresholdRuleTester(32, 0.5, 4, calibration_trials=200)
    tester.accept_batch(uniform(32), 20, 0)


def _asymmetric_rate_path():
    from repro.core.tradeoffs import AsymmetricRateTester

    tester = AsymmetricRateTester(
        32, 0.5, [1.0, 0.5, 0.01], tau=12.0, calibration_trials=200
    )
    tester.accept_batch(uniform(32), 20, 0)


def _multibit_path():
    from repro.core.multibit import MultibitThresholdTester

    tester = MultibitThresholdTester(32, 0.5, 4, q=8, calibration_trials=200)
    tester.accept_batch(uniform(32), 20, 0)


class TestLibraryWarnings:
    """The testers that once went through the collision wrappers build
    their players and calibrations on the graph layer without any
    DeprecationWarning, from repro or from the libraries it calls."""

    @pytest.mark.parametrize(
        "path",
        [_threshold_rule_path, _asymmetric_rate_path, _multibit_path],
        ids=["threshold-rule", "asymmetric-rate", "multibit"],
    )
    def test_library_paths_stay_warning_free(self, path):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            path()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    q=st.integers(min_value=2, max_value=10),
    n=st.integers(min_value=2, max_value=20),
)
@settings(max_examples=50, deadline=None)
def test_collision_count_bounds_property(seed, q, n):
    """0 <= K <= C(q,2), and K = C(q,2) iff all samples equal."""
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, n, size=(20, q))
    counts = collision_counts(samples)
    assert (counts >= 0).all()
    assert (counts <= comb(q, 2)).all()
    all_equal = (samples == samples[:, :1]).all(axis=1)
    assert ((counts == comb(q, 2)) == all_equal).all()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_point_mass_always_collides(seed):
    player = GraphStatisticPlayer(complete_graph(4), 0)
    samples = point_mass(8, 3).sample_matrix(10, 4, seed)
    assert (player.respond_batch(samples) == 0).all()
