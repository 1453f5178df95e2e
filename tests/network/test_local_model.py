"""Tests for the LOCAL-model tester (§6.2 over a real network)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.exceptions import InvalidParameterError
from repro.network import LocalUniformityTester, grid_topology, line_topology, star_topology

N, EPS = 256, 0.5
FAR = repro.two_level_distribution(N, EPS)


class TestConstruction:
    def test_default_tau_is_optimum(self):
        rates = np.ones(16)
        tester = LocalUniformityTester(grid_topology(4, 4), N, EPS, rates)
        from repro.core.tradeoffs import optimal_time_budget

        assert tester.tau == pytest.approx(optimal_time_budget(N, EPS, rates))

    def test_sample_counts_follow_rates(self):
        rates = np.concatenate([[2.0], np.ones(15)])
        tester = LocalUniformityTester(grid_topology(4, 4), N, EPS, rates, tau=30)
        assert tester.sample_counts[0] == 60
        assert tester.sample_counts[1] == 30

    def test_rate_count_must_match_nodes(self):
        with pytest.raises(InvalidParameterError):
            LocalUniformityTester(grid_topology(4, 4), N, EPS, np.ones(5))


class TestStatistics:
    def test_completeness_and_soundness(self):
        tester = LocalUniformityTester(grid_topology(4, 4), N, EPS, np.ones(16))
        assert tester.acceptance_probability(repro.uniform(N), 60, rng=0) >= 0.6
        assert tester.acceptance_probability(FAR, 60, rng=1) <= 0.4

    def test_heterogeneous_rates_work(self):
        rates = np.linspace(0.5, 2.0, 12)
        tester = LocalUniformityTester(star_topology(12), N, EPS, rates)
        assert tester.acceptance_probability(repro.uniform(N), 60, rng=2) >= 0.6


class TestTimeDecomposition:
    def test_reports_both_phases(self):
        tester = LocalUniformityTester(line_topology(10), N, EPS, np.ones(10))
        report = tester.run(repro.uniform(N), rng=0)
        assert report.total_time == report.sampling_time + report.aggregation_rounds
        assert report.aggregation_rounds >= 2 * 9  # line depth dominates
