"""Tests for the simultaneous-message protocol simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AndRule,
    ConstantPlayer,
    GraphStatisticPlayer,
    Player,
    RandomBitPlayer,
    SimultaneousProtocol,
    ThresholdRule,
    complete_graph,
)
from repro.distributions import SampleOracle, point_mass, uniform
from repro.exceptions import (
    DimensionMismatchError,
    InvalidParameterError,
    ProtocolError,
)


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
    def test_run_once_uniform_mostly_accepts(self):
        protocol = make_protocol(k=2, q=2)
        outcome = protocol.run_once(uniform(10_000), rng=0)
        assert outcome.accepted
        assert outcome.samples_drawn == 4
        assert outcome.bits.shape == (2,)

    def test_point_mass_always_rejected_under_and(self):
        protocol = make_protocol(k=3, q=4)
        outcome = protocol.run_once(point_mass(16, 0), rng=0)
        assert not outcome.accepted
        assert (outcome.bits == 0).all()

    def test_run_with_oracles_meters_budget(self):
        protocol = make_protocol(k=2, q=5)
        oracles = [SampleOracle(uniform(64), rng=i, budget=5) for i in range(2)]
        outcome = protocol.run_with_oracles(oracles)
        assert outcome.samples_drawn == 10
        for oracle in oracles:
            with pytest.raises(ProtocolError):
                oracle.draw(1)

    def test_run_with_wrong_oracle_count(self):
        protocol = make_protocol(k=3)
        with pytest.raises(ProtocolError):
            protocol.run_with_oracles([SampleOracle(uniform(8))])

    def test_run_batch_shape(self):
        protocol = make_protocol(k=4, q=4)
        accepts = protocol.run_batch(uniform(256), trials=50, rng=0)
        assert accepts.shape == (50,)
        assert accepts.dtype == bool

    def test_batch_matches_single_runs_statistically(self):
        protocol = make_protocol(k=2, q=6)
        dist = point_mass(8, 1).mix(uniform(8), 0.3)
        batch_rate = protocol.acceptance_probability(dist, trials=4000, rng=1)
        single_rate = float(
            np.mean([protocol.run_once(dist, rng=seed).accepted for seed in range(600)])
        )
        assert batch_rate == pytest.approx(single_rate, abs=0.07)

    def test_heterogeneous_batch(self):
        players = [
            Player(GraphStatisticPlayer(complete_graph(2), 0), 2),
            Player(GraphStatisticPlayer(complete_graph(16), 0), 16),
        ]
        protocol = SimultaneousProtocol(players, ThresholdRule(2, num_players=2))
        accepts = protocol.run_batch(uniform(16), trials=30, rng=0)
        assert accepts.shape == (30,)

    def test_random_players_uninformative(self):
        """With sample-blind players, acceptance is distribution-independent."""
        protocol = SimultaneousProtocol.homogeneous(
            RandomBitPlayer(bias=0.7), 4, 3, AndRule()
        )
        p_uniform = protocol.acceptance_probability(uniform(32), 3000, rng=0)
        p_point = protocol.acceptance_probability(point_mass(32, 0), 3000, rng=1)
        assert p_uniform == pytest.approx(p_point, abs=0.05)
        assert p_uniform == pytest.approx(0.7**4, abs=0.05)

    def test_bit_distribution(self):
        protocol = make_protocol(k=3, q=4)
        rates = protocol.bit_distribution(point_mass(8, 0), trials=200, rng=0)
        assert rates.shape == (3,)
        assert np.allclose(rates, 0.0)  # point mass always collides

    def test_trials_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            make_protocol().run_batch(uniform(8), trials=0)

    def test_reproducible_with_seed(self):
        protocol = make_protocol(k=4, q=4)
        a = protocol.run_batch(uniform(64), trials=20, rng=42)
        b = protocol.run_batch(uniform(64), trials=20, rng=42)
        assert np.array_equal(a, b)
