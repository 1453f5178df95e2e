"""Cross-backend parity: the pool at every width × tile size, bit-identical.

The determinism contract says the estimate is a pure function of
``(kernel, distribution, mode, root entropy)`` — never of the execution
plan.  This module sweeps the plan axes the engine actually varies
(serial or pool, worker width, ``max_elements`` retiling, cost-model
auto-tiling) and asserts verdicts, rates, successes AND ``trials_used``
match the serial reference exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.testers import CentralizedCollisionTester
from repro.distributions.discrete import uniform
from repro.engine import (
    SerialBackend,
    SprtSpec,
    chunked_accepts,
    close_warm_backends,
    engine_context,
    estimate_acceptance,
    make_backend,
)
from tests.oracles import BernoulliKernel

#: Pool widths; ``kind="shm"`` keeps width 1 on a one-worker pool.
WIDTHS = (1, 2, 4)
TILE_SIZES = (64, 192, 100_000)

KERNEL = BernoulliKernel(0.7)
DISTRIBUTION = uniform(8)
SPRT = SprtSpec(target=0.5, margin=0.1, error_rate=0.05, max_trials=2048)


@pytest.fixture(scope="module", autouse=True)
def _drain_warm_pools():
    yield
    close_warm_backends()


def _estimates(backend, max_elements):
    with engine_context(backend=backend, max_elements=max_elements):
        fixed = estimate_acceptance(KERNEL, DISTRIBUTION, trials=1000, rng=123)
        sequential = estimate_acceptance(KERNEL, DISTRIBUTION, sprt=SPRT, rng=123)
    return fixed, sequential


def _assert_same(actual, reference):
    assert actual.rate == reference.rate
    assert actual.successes == reference.successes
    assert actual.trials_used == reference.trials_used
    assert actual.decided_above == reference.decided_above
    assert actual.stopped_early == reference.stopped_early


class TestEstimateParity:
    def test_every_plan_matches_serial_reference(self):
        reference_fixed, reference_sprt = _estimates(SerialBackend(), 100_000)
        for max_elements in TILE_SIZES:
            for width in WIDTHS:
                backend = make_backend(width, kind="shm")
                fixed, sequential = _estimates(backend, max_elements)
                _assert_same(fixed, reference_fixed)
                _assert_same(sequential, reference_sprt)

    def test_auto_tiling_preserves_results(self):
        reference_fixed, reference_sprt = _estimates(SerialBackend(), 64)
        fixed, sequential = _estimates(make_backend(2), 64)
        _assert_same(fixed, reference_fixed)
        _assert_same(sequential, reference_sprt)


class TestCurveParity:
    def test_accept_curves_bit_identical_for_graph_testers(self):
        """Comparison-graph kernels (explicit-edge statistic, distinct
        mode, network deployment) across every pool width."""
        testers = [
            repro.ComparisonGraphTester(64, 0.4, repro.bipartite_graph(24)),
            repro.ComparisonGraphTester(
                64, 0.4, repro.matching_graph(24), mode="distinct"
            ),
            repro.NetworkUniformityTester(
                repro.network.star_topology(6),
                64,
                0.4,
                comparison_graph=repro.cycle_graph(12),
            ),
        ]
        far = repro.two_level_distribution(64, 0.4)
        for tester in testers:
            with engine_context(backend=SerialBackend(), max_elements=100_000):
                reference = chunked_accepts(tester, far, 320, rng=7)
            for width in WIDTHS:
                backend = make_backend(width, kind="shm")
                with engine_context(backend=backend, max_elements=100_000):
                    accepts = chunked_accepts(tester, far, 320, rng=7)
                assert np.array_equal(accepts, reference), (tester, width)

    def test_accept_curves_bit_identical_for_real_tester(self):
        tester = CentralizedCollisionTester(64, 0.4)
        far = repro.two_level_distribution(64, 0.4)
        with engine_context(backend=SerialBackend(), max_elements=100_000):
            reference = chunked_accepts(tester, far, 320, rng=7)
        for width in (2, 4):
            backend = make_backend(width)
            for max_elements in (
                64 * tester.q,
                3 * 64 * tester.q,
                10**9,
            ):
                with engine_context(backend=backend, max_elements=max_elements):
                    accepts = chunked_accepts(tester, far, 320, rng=7)
                assert np.array_equal(accepts, reference)
