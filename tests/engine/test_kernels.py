"""The AcceptKernel substrate: one kernel protocol, tokens, entry point.

Everything that estimates an acceptance probability flows through
``estimate_acceptance`` on an :class:`~repro.engine.AcceptKernel`, and
every tester, protocol and streaming tester is one itself; these tests
pin that flat protocol, the bit-equality of the protocol path with its
per-block reference, and the cache keying that keeps distinct kernels
from colliding.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.independence import IndependenceTester
from repro.core.protocol import protocol_bits
from repro.engine import (
    block_seed,
    chunked_accepts,
    engine_context,
    estimate_acceptance,
    kernel_label,
    kernel_probe_key,
    plan_blocks,
    require_kernel,
)
from repro.exceptions import InvalidParameterError
from tests.oracles import BernoulliKernel

N, EPS = 128, 0.5


def make_protocol():
    return repro.SimultaneousProtocol.homogeneous(
        repro.GraphStatisticPlayer(repro.complete_graph(12), 0),
        num_players=6,
        num_samples=12,
        referee=repro.ThresholdRule(2, num_players=6),
    )


class _TokenRaises:
    """Has every kernel member, but evaluating its token fails."""

    elements_per_trial = 1

    @property
    def cache_token(self):
        raise AssertionError("cache_token evaluated")

    def accept_block(self, distribution, trials, rng=None):
        return np.ones(trials, dtype=bool)


class TestKernelProtocol:
    def test_non_kernel_is_rejected_by_both_entry_points(self):
        with pytest.raises(InvalidParameterError, match="lacks accept_block"):
            estimate_acceptance(object(), repro.uniform(N), trials=10, rng=0)
        with pytest.raises(InvalidParameterError, match="lacks accept_block"):
            chunked_accepts(object(), repro.uniform(N), 10, 0)

    def test_rejected_trial_count_leaves_the_generator_untouched(self):
        generator = np.random.default_rng(3)
        state = generator.bit_generator.state
        for kernel in (repro.CentralizedCollisionTester(N, EPS), make_protocol()):
            with pytest.raises(InvalidParameterError, match="trials"):
                kernel.accept_batch(repro.uniform(N), 0, generator)
        assert generator.bit_generator.state == state

    def test_membership_check_reads_the_type_not_the_token(self):
        require_kernel(_TokenRaises())
        accepts = chunked_accepts(_TokenRaises(), None, 10, 0)
        assert accepts.all()

    def test_protocol_backed_kernels_carry_protocol_tokens(self):
        tester = repro.ThresholdRuleTester(N, EPS, k=8)
        assert tester.cache_token["kind"] == "protocol"
        assert tester.cache_token["class"] == "ThresholdRuleTester"
        assert tester.elements_per_trial == tester.protocol.total_samples
        protocol = make_protocol()
        assert protocol.cache_token["kind"] == "protocol"
        assert protocol.elements_per_trial == 6 * 12

    def test_wrong_domain_input_is_rejected_by_the_kernel(self):
        """The domain check lives in accept_block, so the engine entry
        point validates too (not a numpy broadcast error)."""
        independence = IndependenceTester(2, 4, EPS)
        with pytest.raises(InvalidParameterError, match="domain"):
            estimate_acceptance(independence, repro.uniform(12), trials=10, rng=0)
        closeness = repro.ClosenessTester(8, EPS).against(repro.uniform(8))
        with pytest.raises(InvalidParameterError, match="n=8"):
            estimate_acceptance(closeness, repro.uniform(12), trials=10, rng=0)

    def test_labels_are_short_and_stable(self):
        assert kernel_label(BernoulliKernel(0.25)) == "BernoulliKernel"
        label = kernel_label(repro.CentralizedCollisionTester(N, EPS))
        assert label == "CentralizedCollisionTester"


class TestProtocolKernelEquality:
    def test_kernel_stream_matches_accept_batch(self):
        """accept_batch replays the per-block player bits under any tiling."""
        protocol = make_protocol()
        dist = repro.two_level_distribution(N, EPS)
        bits = np.concatenate(
            [
                protocol_bits(
                    protocol,
                    dist,
                    block.trials,
                    np.random.default_rng(block_seed(42, block.index)),
                )
                for block in plan_blocks(300)
            ]
        )
        reference = np.asarray(protocol.referee.decide_batch(bits), dtype=bool)
        with engine_context(max_elements=500):
            tiled = protocol.accept_batch(dist, 300, rng=42)
        assert np.array_equal(protocol.accept_batch(dist, 300, rng=42), reference)
        assert np.array_equal(tiled, reference)
        assert np.array_equal(protocol.bit_distribution(dist, 300, 42), bits.mean(0))

    def test_protocol_tester_matches_its_protocol(self):
        tester = repro.ThresholdRuleTester(N, EPS, k=8)
        dist = repro.two_level_distribution(N, EPS)
        assert np.array_equal(
            tester.accept_batch(dist, 300, rng=5),
            tester.protocol.accept_batch(dist, 300, rng=5),
        )

    def test_fixed_estimate_matches_chunked_mean(self):
        tester = repro.ThresholdRuleTester(N, EPS, k=8)
        dist = repro.uniform(N)
        estimate = estimate_acceptance(tester, dist, trials=200, rng=11)
        accepts = chunked_accepts(tester, dist, 200, 11)
        assert estimate.rate == pytest.approx(float(accepts.mean()))
        assert estimate.trials_used == 200


class TestBernoulliKernel:
    def test_rate_near_probability(self):
        estimate = estimate_acceptance(
            BernoulliKernel(0.8), None, trials=2000, rng=5
        )
        assert 0.75 < estimate.rate < 0.85

    def test_invalid_probability(self):
        with pytest.raises(InvalidParameterError):
            BernoulliKernel(1.5)


class TestCacheKeys:
    def test_distinct_kernels_sharing_parameters_do_not_collide(self):
        """The satellite: closeness / independence / network / protocol
        kernels sharing (n, q, seed) must map to distinct cache keys."""
        n, q, seed = 64, 32, 123
        closeness = repro.ClosenessTester(n, EPS, q=q)
        kernels = [
            repro.CentralizedCollisionTester(n, EPS, q=q),
            closeness.against(repro.uniform(n)),
            closeness.as_uniformity_tester(),
            repro.IndependenceTester(8, 8, EPS, q=q),
            repro.NetworkUniformityTester(
                repro.network.star_topology(8), n, EPS, q=q
            ),
        ]
        dist = repro.uniform(n)
        keys = [
            repr(kernel_probe_key(k, dist, {"trials": 100}, seed)) for k in kernels
        ]
        assert len(set(keys)) == len(keys)

    def test_reference_distribution_enters_closeness_key(self):
        closeness = repro.ClosenessTester(64, EPS, q=32)
        a = closeness.against(repro.uniform(64))
        b = closeness.against(repro.two_level_distribution(64, EPS))
        assert a.cache_token != b.cache_token

    def test_estimate_round_trips_through_cache(self, tmp_path):
        from repro.engine import AcceptanceCache, engine_context

        kernel = BernoulliKernel(0.6)
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            cold = estimate_acceptance(kernel, None, trials=500, rng=9)
            warm = estimate_acceptance(kernel, None, trials=500, rng=9)
        assert not cold.from_cache
        assert warm.from_cache
        assert warm.rate == cold.rate
        assert warm.trials_used == cold.trials_used


class TestEntryPointValidation:
    def test_requires_exactly_one_mode(self):
        kernel = BernoulliKernel(0.5)
        with pytest.raises(InvalidParameterError):
            estimate_acceptance(kernel, None)
        from repro.engine import SprtSpec

        with pytest.raises(InvalidParameterError):
            estimate_acceptance(
                kernel, None, trials=10, sprt=SprtSpec(target=0.5)
            )

    def test_trials_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            estimate_acceptance(BernoulliKernel(0.5), None, trials=0)
