"""Engine determinism: same seed ⇒ identical accept vectors everywhere.

The engine's core contract is that the Monte Carlo stream is a function of
the root seed and the fixed RNG-block grid alone — never of the backend,
the worker count, or the tile size.  These tests pin that contract for
homogeneous and heterogeneous protocols, direct testers, and the
complexity search.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.engine import (
    ProcessPoolBackend,
    SerialBackend,
    engine_context,
)

N, EPS = 128, 0.5


def homogeneous_protocol():
    return repro.SimultaneousProtocol.homogeneous(
        repro.GraphStatisticPlayer(repro.complete_graph(12), 0),
        num_players=6,
        num_samples=12,
        referee=repro.ThresholdRule(2, num_players=6),
    )


def heterogeneous_protocol():
    from repro.core import Player, UniqueElementsPlayer

    players = [
        Player(repro.GraphStatisticPlayer(repro.complete_graph(4), 0), 4),
        Player(repro.GraphStatisticPlayer(repro.complete_graph(16), 1), 16),
        Player(UniqueElementsPlayer(3), 8),
    ]
    return repro.SimultaneousProtocol(players, repro.ThresholdRule(2, num_players=3))


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(max_workers=2)
    yield backend
    backend.close()


class TestProtocolDeterminism:
    @pytest.mark.parametrize("make", [homogeneous_protocol, heterogeneous_protocol])
    def test_chunk_size_invariance(self, make):
        protocol = make()
        dist = repro.uniform(N)
        baseline = protocol.run_batch(dist, 300, rng=7)
        for max_elements in (64, 777, 10_000, 10**7):
            with engine_context(max_elements=max_elements):
                chunked = protocol.run_batch(dist, 300, rng=7)
            assert np.array_equal(baseline, chunked), max_elements

    @pytest.mark.parametrize("make", [homogeneous_protocol, heterogeneous_protocol])
    def test_backend_invariance(self, make, pool):
        protocol = make()
        dist = repro.two_level_distribution(N, EPS)
        with engine_context(backend=SerialBackend(), max_elements=500):
            serial = protocol.run_batch(dist, 300, rng=13)
        with engine_context(backend=pool, max_elements=500):
            parallel = protocol.run_batch(dist, 300, rng=13)
        assert np.array_equal(serial, parallel)

    def test_bit_distribution_matches_run_batch_streams(self):
        """bit_distribution and run_batch share one execution path."""
        protocol = homogeneous_protocol()
        dist = repro.uniform(N)
        a = protocol.bit_distribution(dist, 200, rng=3)
        with engine_context(max_elements=128):
            b = protocol.bit_distribution(dist, 200, rng=3)
        assert np.array_equal(a, b)

    def test_integer_seed_is_stable_entropy(self):
        """An int seed is used verbatim: repeated calls agree exactly."""
        protocol = homogeneous_protocol()
        dist = repro.uniform(N)
        assert np.array_equal(
            protocol.run_batch(dist, 100, rng=99), protocol.run_batch(dist, 100, rng=99)
        )

    def test_generator_seed_advances(self):
        """A shared generator yields independent (different) batches."""
        protocol = homogeneous_protocol()
        dist = repro.uniform(N)
        generator = np.random.default_rng(5)
        first = protocol.run_batch(dist, 200, generator)
        second = protocol.run_batch(dist, 200, generator)
        assert not np.array_equal(first, second)


class TestTesterDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: repro.CentralizedCollisionTester(N, EPS, q=48),
            lambda: repro.ThresholdRuleTester(N, EPS, k=8),
            lambda: repro.AndRuleTester(N, EPS, k=4),
            lambda: repro.SimulationTester(N, EPS, k=200),
            lambda: repro.PairwiseHashTester(N, EPS, k=64),
        ],
    )
    def test_accept_batch_chunk_invariant(self, factory, pool):
        tester = factory()
        dist = repro.two_level_distribution(N, EPS)
        baseline = tester.accept_batch(dist, 200, rng=21)
        with engine_context(max_elements=256):
            chunked = tester.accept_batch(dist, 200, rng=21)
        with engine_context(backend=pool, max_elements=256):
            parallel = tester.accept_batch(dist, 200, rng=21)
        assert np.array_equal(baseline, chunked)
        assert np.array_equal(baseline, parallel)


class TestSearchDeterminism:
    def _search(self):
        return repro.empirical_sample_complexity(
            lambda q: repro.ThresholdRuleTester(N, EPS, k=8, q=q),
            n=N,
            epsilon=EPS,
            trials=120,
            rng=17,
        )

    def test_resource_star_invariant_across_backends_and_chunks(self, pool):
        baseline = self._search()
        with engine_context(max_elements=512):
            chunked = self._search()
        with engine_context(backend=pool, max_elements=512):
            parallel = self._search()
        assert baseline.resource_star == chunked.resource_star == parallel.resource_star
        assert baseline.curve == chunked.curve == parallel.curve
