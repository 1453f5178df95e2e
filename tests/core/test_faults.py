"""Tests for fault injection (the robustness face of locality)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.faults import FlippingPlayer, StuckAtPlayer, inject_faults
from repro.core.graphs import GraphStatisticPlayer, complete_graph
from repro.exceptions import InvalidParameterError

N, EPS, K = 256, 0.5, 16
FAR = repro.two_level_distribution(N, EPS)


class TestFaultModels:
    def test_stuck_at_constant(self, rng):
        samples = repro.uniform(8).sample_matrix(10, 4, rng)
        assert (StuckAtPlayer(0).respond_batch(samples) == 0).all()
        assert (StuckAtPlayer(1).respond_batch(samples) == 1).all()

    def test_stuck_at_validation(self):
        with pytest.raises(InvalidParameterError):
            StuckAtPlayer(2)

    def test_flipping_extremes(self, rng):
        honest = GraphStatisticPlayer(complete_graph(3), 0)
        samples = repro.uniform(1000).sample_matrix(200, 3, rng)
        honest_bits = honest.respond_batch(samples, rng)
        never = FlippingPlayer(honest, 0.0).respond_batch(samples, rng)
        always = FlippingPlayer(honest, 1.0).respond_batch(samples, rng)
        assert np.array_equal(never, honest_bits)
        assert np.array_equal(always, 1 - honest_bits)

    def test_flipping_rate(self, rng):
        honest = StuckAtPlayer(1)
        player = FlippingPlayer(honest, 0.3)
        bits = player.respond_batch(np.zeros((5000, 1), dtype=np.int64), rng)
        assert (1 - bits.mean()) == pytest.approx(0.3, abs=0.03)

    def test_flipping_validation(self):
        with pytest.raises(InvalidParameterError):
            FlippingPlayer(StuckAtPlayer(1), 1.5)


class TestInjection:
    def test_and_rule_dies_with_one_stuck_alarm(self):
        base = repro.AndRuleTester(N, EPS, K)
        faulty = inject_faults(base, num_stuck_alarm=1)
        assert faulty.completeness(100, rng=0) == 0.0

    def test_threshold_rule_survives_one_stuck_alarm(self):
        base = repro.ThresholdRuleTester(N, EPS, K)
        faulty = inject_faults(base, num_stuck_alarm=1)
        assert faulty.completeness(200, rng=1) >= 0.5

    def test_and_rule_ignores_stuck_accepts(self):
        """A stuck-accept node cannot create false accepts under AND as
        long as honest nodes still alarm."""
        base = repro.AndRuleTester(N, EPS, K)
        faulty = inject_faults(base, num_stuck_accept=2)
        assert faulty.soundness(FAR, 150, rng=2) >= base.soundness(FAR, 150, rng=3) - 0.15

    def test_original_tester_untouched(self):
        base = repro.ThresholdRuleTester(N, EPS, K)
        before = base.completeness(200, rng=4)
        inject_faults(base, num_stuck_alarm=K // 2)
        after = base.completeness(200, rng=4)
        assert before == after  # same seed, same protocol → identical

    def test_too_many_faults_rejected(self):
        base = repro.ThresholdRuleTester(N, EPS, K)
        with pytest.raises(InvalidParameterError):
            inject_faults(base, num_stuck_alarm=K, num_byzantine=1)

    def test_requires_protocol_backed_tester(self):
        centralized = repro.CentralizedCollisionTester(N, EPS)
        with pytest.raises(InvalidParameterError):
            inject_faults(centralized, num_stuck_alarm=1)

    def test_byzantine_degradation_monotone(self):
        base = repro.ThresholdRuleTester(N, EPS, K)
        clean = min(
            base.completeness(250, rng=5), base.soundness(FAR, 250, rng=6)
        )
        noisy = inject_faults(base, num_byzantine=K // 2)
        degraded = min(
            noisy.completeness(250, rng=7), noisy.soundness(FAR, 250, rng=8)
        )
        assert degraded < clean
