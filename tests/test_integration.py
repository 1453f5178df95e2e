"""Cross-module integration tests.

These exercise whole pipelines — hard family → protocol → referee →
statistics — the way the benchmarks and examples do, and pin down the
paper's qualitative claims at small scale.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.core.graphs import complete_graph, worst_case_statistic_proxy
from repro.lowerbounds import theorem_1_1_q_lower
from repro.stats import empirical_sample_complexity
from repro.stats.complexity import success_at


class TestEndToEndTesting:
    """The full distinguish-uniform-from-far pipeline."""

    def test_threshold_tester_beats_lower_bound_but_not_by_much(self):
        n, k, eps = 256, 16, 0.5
        result = empirical_sample_complexity(
            lambda q: repro.ThresholdRuleTester(n, eps, k, q=q),
            n=n,
            epsilon=eps,
            trials=200,
            rng=0,
        )
        bound = theorem_1_1_q_lower(n, k, eps)
        assert result.resource_star >= bound
        # Shape check: measured q* within a constant factor of √(n/k)/ε².
        predicted = (n / k) ** 0.5 / eps**2
        assert result.resource_star <= 30 * predicted

    def test_paninski_family_is_hardest_alternative(self):
        """The measured q* against ν_z should be at least that against an
        easy alternative (a heavy point mass)."""
        n, k, eps = 256, 8, 0.5
        family = repro.PaninskiFamily(n, eps)
        hard = [family.sample_distribution(s) for s in range(3)]
        easy = [repro.bimodal_distribution(n, eps, heavy_elements=1)]
        hard_q = empirical_sample_complexity(
            lambda q: repro.ThresholdRuleTester(n, eps, k, q=q),
            n=n,
            epsilon=eps,
            trials=200,
            far_distributions=hard,
            rng=1,
        ).resource_star
        easy_q = empirical_sample_complexity(
            lambda q: repro.ThresholdRuleTester(n, eps, k, q=q),
            n=n,
            epsilon=eps,
            trials=200,
            far_distributions=easy,
            rng=2,
        ).resource_star
        assert hard_q >= easy_q

    def test_and_rule_uses_more_samples_than_threshold_rule(self):
        """Theorem 1.2's message at fixed scale: the AND network needs more
        per-player samples than the threshold network."""
        n, k, eps = 256, 16, 0.5
        threshold_q = empirical_sample_complexity(
            lambda q: repro.ThresholdRuleTester(n, eps, k, q=q),
            n=n,
            epsilon=eps,
            trials=200,
            rng=3,
        ).resource_star
        and_q = empirical_sample_complexity(
            lambda q: repro.AndRuleTester(n, eps, k, q=q),
            n=n,
            epsilon=eps,
            trials=200,
            rng=4,
        ).resource_star
        assert and_q > threshold_q

    def test_collision_statistics_identical_across_family(self):
        """The calibration proxy claim: collision-count distributions are
        the same for every ν_z (probabilities are a permuted multiset)."""
        n, eps, q = 64, 0.5, 12
        family = repro.PaninskiFamily(n, eps)
        proxy = worst_case_statistic_proxy(complete_graph(q), n, eps)
        proxy_sorted = np.sort(proxy.pmf)
        for seed in range(5):
            member = family.sample_distribution(seed)
            assert np.allclose(np.sort(member.pmf), proxy_sorted)

    def test_success_improves_with_every_resource(self):
        n, eps = 256, 0.5
        far = [repro.two_level_distribution(n, eps)]
        base = success_at(
            repro.ThresholdRuleTester(n, eps, k=8, q=16), far, 300, rng=5
        )
        more_q = success_at(
            repro.ThresholdRuleTester(n, eps, k=8, q=64), far, 300, rng=6
        )
        more_k = success_at(
            repro.ThresholdRuleTester(n, eps, k=64, q=16), far, 300, rng=7
        )
        assert more_q > base
        assert more_k > base


class TestBudgetedProtocols:
    def test_protocol_respects_oracle_budgets(self):
        protocol = repro.SimultaneousProtocol.homogeneous(
            repro.GraphStatisticPlayer(repro.complete_graph(10), 0), 4, 10, repro.AndRule()
        )
        oracles = [
            repro.oracle_for(repro.uniform(64), rng=i, budget=10) for i in range(4)
        ]
        outcome = protocol.run_with_oracles(oracles)
        assert outcome.samples_drawn == 40
        for oracle in oracles:
            assert oracle.samples_drawn == 10

    def test_metered_totals_match_resources(self):
        tester = repro.ThresholdRuleTester(256, 0.5, k=8, q=24)
        assert tester.resources.total_samples == 8 * 24


class TestLearningIntegration:
    def test_learned_estimate_feeds_back_into_testing(self):
        """Learn an ε-far distribution well enough that the plug-in farness
        estimate classifies it correctly."""
        n, eps = 16, 0.6
        family = repro.PaninskiFamily(n, eps)
        target = family.sample_distribution(3)
        learner = repro.HitCountingLearner(n=n, k=n * 512, q=4)
        outcome = learner.learn(target, rng=0)
        estimated_farness = repro.distance_to_uniform(outcome.estimate)
        assert estimated_farness > eps / 2

    def test_uniform_input_learns_near_uniform(self):
        n = 16
        learner = repro.HitCountingLearner(n=n, k=n * 512, q=4)
        outcome = learner.learn(repro.uniform(n), rng=1)
        assert repro.distance_to_uniform(outcome.estimate) < 0.2


class TestSharedRandomnessProtocols:
    def test_single_sample_tester_needs_many_more_players_than_q_big(self):
        """q=1 testers live in a different regime: at player counts where
        the threshold tester (q≈√n) is comfortable, the single-sample
        tester is hopeless."""
        n, eps, k = 64, 0.6, 32
        far = repro.two_level_distribution(n, eps)
        multi_sample = repro.ThresholdRuleTester(n, eps, k=k)
        single_sample = repro.PairwiseHashTester(n, eps, k=k)
        multi_success = min(
            multi_sample.completeness(150, rng=0),
            multi_sample.soundness(far, 150, rng=1),
        )
        single_success = min(
            single_sample.completeness(150, rng=2),
            single_sample.soundness(far, 150, rng=3),
        )
        assert multi_success > single_success
