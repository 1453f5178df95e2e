"""Reproducibility: identical seeds must give identical results everywhere.

The library's contract is that every stochastic component is driven by an
explicit seed; these tests pin that contract across layers (sampling,
testers, searches, experiments) so a refactor cannot silently break
reproducibility.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.engine import ProcessPoolBackend, SerialBackend, engine_context
from repro.experiments import run_experiment
from repro.stats import empirical_sample_complexity


class TestSamplingDeterminism:
    def test_distribution_sampling(self):
        dist = repro.zipf_distribution(64, 1.0)
        assert np.array_equal(dist.sample(100, 42), dist.sample(100, 42))

    def test_family_member_drawing(self):
        family = repro.PaninskiFamily(32, 0.5)
        a = family.sample_distribution(7)
        b = family.sample_distribution(7)
        assert a == b

    def test_oracle_streams(self):
        a = repro.oracle_for(repro.uniform(64), rng=5).draw(20)
        b = repro.oracle_for(repro.uniform(64), rng=5).draw(20)
        assert np.array_equal(a, b)


class TestTesterDeterminism:
    def test_threshold_tester_batches(self):
        tester = repro.ThresholdRuleTester(256, 0.5, k=8)
        far = repro.two_level_distribution(256, 0.5)
        assert np.array_equal(
            tester.accept_batch(far, 50, rng=3), tester.accept_batch(far, 50, rng=3)
        )

    def test_calibration_is_seeded(self):
        """Two testers built with the same calibration seed agree exactly."""
        a = repro.ThresholdRuleTester(256, 0.5, k=8, calibration_rng=1)
        b = repro.ThresholdRuleTester(256, 0.5, k=8, calibration_rng=1)
        assert a.reject_threshold == b.reject_threshold
        assert a.player_reject_probability == b.player_reject_probability

    def test_identity_tester(self):
        target = repro.zipf_distribution(32, 0.7)
        tester = repro.IdentityTester(target, 0.6)
        assert tester.acceptance_probability(target, 60, rng=9) == pytest.approx(
            tester.acceptance_probability(target, 60, rng=9)
        )


class TestHarnessDeterminism:
    def test_complexity_search(self):
        def factory(q):
            return repro.CentralizedCollisionTester(256, 0.5, q=q)

        first = empirical_sample_complexity(
            factory, n=256, epsilon=0.5, trials=120, rng=11
        )
        second = empirical_sample_complexity(
            factory, n=256, epsilon=0.5, trials=120, rng=11
        )
        assert first.resource_star == second.resource_star
        assert first.curve == second.curve

    def test_experiment_runs(self):
        a = run_experiment("e10", scale="small", seed=4)
        b = run_experiment("e10", scale="small", seed=4)
        assert a.rows == b.rows
        assert a.summary == b.summary

    def test_monte_carlo_experiment_runs(self):
        a = run_experiment("e18", scale="small", seed=2)
        b = run_experiment("e18", scale="small", seed=2)
        assert a.rows == b.rows


class TestWorkerCountInvariance:
    """The engine's worker count must not influence any acceptance curve.

    ``monte_carlo_bits`` derives per-block spawned generators from one
    root entropy value, so cutting the same trials into tiles and
    mapping them over 1 vs 4 workers must reproduce the exact bit
    matrix — and therefore the exact acceptance curve — for every
    referee decision rule (AND, threshold, arbitrary truth table).
    """

    TRIALS_GRID = (16, 48)

    @staticmethod
    def _make_and_rule():
        return repro.AndRuleTester(64, 0.5, k=4, q=24, calibration_trials=400)

    @staticmethod
    def _make_threshold_rule():
        return repro.ThresholdRuleTester(64, 0.5, k=4, q=24, calibration_trials=400)

    @staticmethod
    def _make_truth_table():
        from repro.core.graphs import GraphStatisticPlayer, complete_graph
        from repro.core.protocol import SimultaneousProtocol

        referee = repro.TruthTableRule([0, 1] * 8)  # arbitrary f: {0,1}^4 -> {0,1}
        player = GraphStatisticPlayer(complete_graph(24), 1)
        return SimultaneousProtocol.homogeneous(player, 4, 24, referee)

    def _curve(self, runner, backend):
        far = repro.two_level_distribution(64, 0.5)
        with engine_context(backend=backend, max_elements=2048):
            return [
                runner.acceptance_probability(far, trials, rng=7)
                for trials in self.TRIALS_GRID
            ]

    @pytest.mark.parametrize(
        "make_runner",
        [_make_and_rule.__func__, _make_threshold_rule.__func__, _make_truth_table.__func__],
        ids=["and-rule", "threshold-rule", "truth-table-rule"],
    )
    def test_workers_1_vs_4_identical_curves(self, make_runner):
        runner = make_runner()
        serial_curve = self._curve(runner, SerialBackend())
        pool = ProcessPoolBackend(max_workers=4)
        try:
            parallel_curve = self._curve(runner, pool)
        finally:
            pool.close()
        assert parallel_curve == serial_curve

    def test_workers_1_vs_4_identical_bit_matrices(self):
        """Stronger than the curve: the raw bit tensor matches exactly."""
        tester = self._make_and_rule()
        far = repro.two_level_distribution(64, 0.5)
        with engine_context(backend=SerialBackend(), max_elements=2048):
            serial_bits = tester.protocol.run_batch(far, 48, rng=11)
        pool = ProcessPoolBackend(max_workers=4)
        try:
            with engine_context(backend=pool, max_elements=2048):
                parallel_bits = tester.protocol.run_batch(far, 48, rng=11)
        finally:
            pool.close()
        assert np.array_equal(serial_bits, parallel_bits)
