"""Differential tests: vectorized accept_block kernels vs reference oracles.

Every production kernel batches its trial axis (lint rule RL303); the
per-trial transcriptions of the pre-vectorization kernels live in
:mod:`tests.oracles`.  Two comparison regimes:

* **bit-identical** — kernels whose vectorization kept the exact draw
  order (:class:`SimulationTester`, :class:`EmpiricalDistanceTester`)
  must agree element-wise under same-seeded generators;
* **statistical** — kernels whose vectorization reordered the stream
  (hash resampling, Poissonized synthesis, batched learning runs, the
  per-player LOCAL batch) must agree in acceptance rate within a
  fixed-seed margin far wider than the Monte-Carlo noise floor.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.random import default_rng

import repro
from repro.core.baselines import EmpiricalDistanceTester
from repro.core.independence import IndependenceTester, correlated_joint
from repro.core.learning import (
    FrequencyDitheringLearner,
    HitCountingLearner,
    LearningSuccessKernel,
)
from repro.core.testers import PairwiseHashTester, SimulationTester
from repro.distributions.discrete import uniform
from repro.network import LocalUniformityTester, grid_topology
from tests import oracles

N, EPS = 64, 0.3
TRIALS = 400
#: Two-sided tolerance on rate differences.  Each side's standard error
#: at 400 trials is <= 0.025, so 0.12 is ~3.4 sigma on the difference —
#: loose enough to be flake-free at fixed seeds, tight enough to catch a
#: statistic or threshold bug (which shifts rates by O(1)).
RATE_TOL = 0.12

UNIFORM = uniform(N)
FAR = repro.two_level_distribution(N, EPS)


class TestBitIdenticalKernels:
    @pytest.mark.parametrize("seed", [0, 42])
    def test_simulation_tester_matches_oracle_bitwise(self, seed):
        tester = SimulationTester(N, EPS, k=800)
        for dist in (UNIFORM, FAR):
            vectorized = tester.accept_block(dist, TRIALS, default_rng(seed))
            reference = oracles.simulation_reference_accept_block(
                tester, dist, TRIALS, default_rng(seed)
            )
            assert np.array_equal(vectorized, reference)

    @pytest.mark.parametrize("seed", [0, 42])
    def test_empirical_distance_matches_oracle_bitwise(self, seed):
        tester = EmpiricalDistanceTester(N, EPS, q=500)
        for dist in (UNIFORM, FAR):
            vectorized = tester.accept_block(dist, TRIALS, default_rng(seed))
            reference = oracles.empirical_distance_reference_accept_block(
                tester, dist, TRIALS, default_rng(seed)
            )
            assert np.array_equal(vectorized, reference)


class TestStatisticalKernels:
    def test_pairwise_hash_matches_oracle_rate(self):
        tester = PairwiseHashTester(N, EPS, k=400, message_bits=2)
        for dist in (UNIFORM, FAR):
            vectorized = tester.accept_block(dist, TRIALS, default_rng(5)).mean()
            reference = oracles.pairwise_hash_reference_accept_block(
                tester, dist, TRIALS, default_rng(6)
            ).mean()
            assert abs(vectorized - reference) < RATE_TOL

    def test_independence_matches_oracle_rate(self):
        tester = IndependenceTester(8, 8, 0.4, q=600)
        for joint in (correlated_joint(8, 0.0), correlated_joint(8, 0.5)):
            vectorized = tester.accept_block(joint, TRIALS, default_rng(9)).mean()
            reference = oracles.independence_reference_accept_block(
                tester, joint, TRIALS, default_rng(10)
            ).mean()
            assert abs(vectorized - reference) < RATE_TOL

    @pytest.mark.parametrize(
        "learner_cls,q", [(HitCountingLearner, 2), (FrequencyDitheringLearner, 4)]
    )
    def test_learning_kernel_matches_oracle_rate(self, learner_cls, q):
        learner = learner_cls(16, 400, q)
        kernel = LearningSuccessKernel(learner, delta=0.8)
        target = uniform(16)
        vectorized = kernel.accept_block(target, 300, default_rng(11)).mean()
        reference = oracles.learning_reference_accept_block(
            kernel, target, 300, default_rng(12)
        ).mean()
        assert abs(vectorized - reference) < RATE_TOL

    @pytest.mark.parametrize(
        "learner_cls,q", [(HitCountingLearner, 2), (FrequencyDitheringLearner, 4)]
    )
    def test_batched_l1_errors_match_learn_in_law(self, learner_cls, q):
        learner = learner_cls(16, 400, q)
        target = uniform(16)
        batched = learner.l1_errors_block(target, 300, default_rng(13))
        generator = default_rng(14)
        looped = np.array(
            [learner.learn(target, generator).l1_error for _ in range(300)]
        )
        assert batched.shape == (300,)
        assert np.all(batched >= 0.0) and np.all(batched <= 2.0)
        assert abs(batched.mean() - looped.mean()) < 0.05

    def test_local_model_matches_oracle_rate(self):
        n_local, eps_local = 256, 0.5
        tester = LocalUniformityTester(
            grid_topology(4, 4), n_local, eps_local, np.ones(16)
        )
        far = repro.two_level_distribution(n_local, eps_local)
        for dist in (uniform(n_local), far):
            vectorized = tester.accept_block(dist, 300, default_rng(21)).mean()
            reference = oracles.local_model_reference_accept_block(
                tester, dist, 300, default_rng(22)
            ).mean()
            assert abs(vectorized - reference) < RATE_TOL


class TestKernelContracts:
    def test_bumped_kernel_versions(self):
        """Stream-reordering vectorizations must invalidate cached curves."""
        # v2 batched the hash draws; v3 routed per-group collision
        # counting through the comparison-graph layer.
        assert PairwiseHashTester.kernel_version == 3
        tester = IndependenceTester(4, 4, 0.4, q=50)
        assert tester.cache_token["kernel_version"] == 2
        kernel = LearningSuccessKernel(HitCountingLearner(8, 16, 1), delta=0.5)
        assert kernel.cache_token["kernel_version"] == 2
        local = LocalUniformityTester(grid_topology(2, 2), 16, 0.5, np.ones(4))
        assert local.cache_token["kernel_version"] == 2

    def test_elements_per_trial_hints(self):
        pairwise = PairwiseHashTester(N, EPS, k=400, message_bits=2)
        assert pairwise.elements_per_trial >= pairwise.num_groups * N
        empirical = EmpiricalDistanceTester(N, EPS, q=500)
        assert empirical.elements_per_trial == 500 + N
