"""Tests for the simultaneous-message protocol simulator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    AndRule,
    ConstantPlayer,
    GraphStatisticPlayer,
    Player,
    SimultaneousProtocol,
    ThresholdRule,
    birthday_no_collision_probability,
    complete_graph,
)
from repro.distributions import point_mass, uniform
from repro.exceptions import DimensionMismatchError, InvalidParameterError


def make_protocol(k=4, q=8, referee=None):
    return SimultaneousProtocol.homogeneous(
        GraphStatisticPlayer(complete_graph(q), 0), k, q, referee or AndRule()
    )


class TestConstruction:
    def test_homogeneous(self):
        protocol = make_protocol(k=5, q=3)
        assert protocol.num_players == 5
        assert protocol.total_samples == 15
        assert protocol.is_homogeneous

    def test_heterogeneous_detection(self):
        players = [
            Player(GraphStatisticPlayer(complete_graph(4), 0), 4),
            Player(GraphStatisticPlayer(complete_graph(8), 0), 8),
        ]
        protocol = SimultaneousProtocol(players, AndRule())
        assert not protocol.is_homogeneous
        assert protocol.total_samples == 12

    def test_rejects_empty_players(self):
        with pytest.raises(InvalidParameterError):
            SimultaneousProtocol([], AndRule())

    def test_referee_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SimultaneousProtocol.homogeneous(
                ConstantPlayer(1), 3, 2, AndRule(num_players=4)
            )


class TestExecution:
    def test_point_mass_always_rejected_under_and(self):
        protocol = make_protocol(k=3, q=4)
        assert not protocol.accept_batch(point_mass(16, 0), trials=20, rng=0).any()

    def test_accept_batch_shape(self):
        protocol = make_protocol(k=4, q=4)
        accepts = protocol.accept_batch(uniform(256), trials=50, rng=0)
        assert accepts.shape == (50,)
        assert accepts.dtype == bool

    def test_heterogeneous_batch(self):
        players = [
            Player(GraphStatisticPlayer(complete_graph(2), 0), 2),
            Player(GraphStatisticPlayer(complete_graph(16), 0), 16),
        ]
        protocol = SimultaneousProtocol(players, ThresholdRule(2, num_players=2))
        accepts = protocol.accept_batch(uniform(16), trials=30, rng=0)
        assert accepts.shape == (30,)

    def test_bit_distribution(self):
        protocol = make_protocol(k=3, q=4)
        rates = protocol.bit_distribution(point_mass(8, 0), trials=200, rng=0)
        assert rates.shape == (3,)
        assert np.allclose(rates, 0.0)  # point mass always collides

    def test_uniform_input_mostly_accepts(self):
        protocol = make_protocol(k=2, q=2)
        rate = protocol.acceptance_probability(uniform(10_000), trials=500, rng=0)
        assert rate > 0.99

    @pytest.mark.parametrize("reject_threshold", [1, 2])
    def test_acceptance_matches_the_birthday_formula(self, reject_threshold):
        """k independent collision players: the referee's acceptance rate is
        a binomial tail of the exact per-player no-collision probability."""
        n, k, q, trials = 64, 3, 4, 20_000
        protocol = make_protocol(k=k, q=q, referee=ThresholdRule(reject_threshold, k))
        accept_bit = birthday_no_collision_probability(n, q)
        exact = sum(
            math.comb(k, r) * (1 - accept_bit) ** r * accept_bit ** (k - r)
            for r in range(reject_threshold)
        )
        rate = protocol.acceptance_probability(uniform(n), trials=trials, rng=3)
        assert rate == pytest.approx(exact, abs=5 * math.sqrt(exact * (1 - exact) / trials))
        bits = protocol.bit_distribution(uniform(n), trials=trials, rng=4)
        assert bits == pytest.approx(np.full(k, accept_bit), abs=0.02)

    def test_trials_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            make_protocol().accept_batch(uniform(8), trials=0)

    def test_reproducible_with_seed(self):
        protocol = make_protocol(k=4, q=4)
        a = protocol.accept_batch(uniform(64), trials=20, rng=42)
        b = protocol.accept_batch(uniform(64), trials=20, rng=42)
        assert np.array_equal(a, b)
