"""The AcceptKernel substrate: adaptation, tokens, and the entry point.

Everything that estimates an acceptance probability flows through
``estimate_acceptance`` on an :class:`~repro.engine.AcceptKernel`; these
tests pin the adaptation ladder (native kernel → tester → protocol), the
bit-equality of adapted paths with the pre-substrate ones, and the cache
keying that keeps distinct kernels from colliding.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.engine import (
    AcceptKernel,
    BernoulliKernel,
    ProtocolKernel,
    TesterKernel as _TesterKernel,
    as_kernel,
    chunked_accepts,
    estimate_acceptance,
    kernel_label,
    kernel_probe_key,
)
from repro.exceptions import InvalidParameterError

N, EPS = 128, 0.5


def make_protocol():
    return repro.SimultaneousProtocol.homogeneous(
        repro.GraphStatisticPlayer(repro.complete_graph(12), 0),
        num_players=6,
        num_samples=12,
        referee=repro.ThresholdRule(2, num_players=6),
    )


class TestAsKernel:
    def test_native_kernel_passes_through(self):
        kernel = BernoulliKernel(0.5)
        assert as_kernel(kernel) is kernel

    def test_chunked_tester_wraps_in_tester_kernel(self):
        tester = repro.EmpiricalDistanceTester(N, EPS)
        kernel = as_kernel(tester)
        assert isinstance(kernel, _TesterKernel)
        assert isinstance(kernel, AcceptKernel)

    def test_graph_testers_are_native_kernels(self):
        """Since the comparison-graph refactor the collision tester carries
        its own cache_token and passes through as_kernel unwrapped."""
        for tester in (
            repro.CentralizedCollisionTester(N, EPS),
            repro.UniqueElementsTester(N, EPS),
            repro.ComparisonGraphTester(N, EPS, repro.cycle_graph(24)),
        ):
            assert as_kernel(tester) is tester

    def test_protocol_tester_wraps_in_protocol_kernel(self):
        tester = repro.ThresholdRuleTester(N, EPS, k=8)
        kernel = as_kernel(tester)
        assert isinstance(kernel, ProtocolKernel)

    def test_bare_protocol_wraps(self):
        kernel = as_kernel(make_protocol())
        assert isinstance(kernel, ProtocolKernel)

    def test_unadaptable_object_raises(self):
        with pytest.raises(InvalidParameterError):
            as_kernel(object())

    def test_labels_are_short_and_stable(self):
        assert kernel_label(BernoulliKernel(0.25)) == "BernoulliKernel"
        label = kernel_label(as_kernel(repro.CentralizedCollisionTester(N, EPS)))
        assert label == "CentralizedCollisionTester"


class TestProtocolKernelEquality:
    def test_kernel_stream_matches_run_batch(self):
        """The adapted kernel replays the protocol's exact draw order."""
        protocol = make_protocol()
        kernel = as_kernel(protocol)
        dist = repro.two_level_distribution(N, EPS)
        direct = protocol.run_batch(dist, 300, rng=42)
        adapted = chunked_accepts(kernel, dist, 300, 42)
        assert np.array_equal(np.asarray(direct, dtype=bool), adapted)

    def test_fixed_estimate_matches_chunked_mean(self):
        tester = repro.ThresholdRuleTester(N, EPS, k=8)
        dist = repro.uniform(N)
        estimate = estimate_acceptance(tester, dist, trials=200, rng=11)
        accepts = chunked_accepts(as_kernel(tester), dist, 200, 11)
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
            as_kernel(repro.CentralizedCollisionTester(n, EPS, q=q)),
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
