"""Registry dispatch tests plus fast smoke/correctness runs of the cheap
exact-verification experiments (the Monte Carlo sweeps are exercised by the
benchmark suite)."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments import experiment_ids, run_experiment


class TestRegistry:
    def test_all_twelve_registered(self):
        assert experiment_ids() == [f"e{i:02d}" for i in range(1, 22)]

    def test_unknown_experiment(self):
        with pytest.raises(InvalidParameterError):
            run_experiment("e99")

    def test_case_insensitive(self):
        result = run_experiment("E10", scale="small")
        assert result.experiment_id == "e10"

    def test_unknown_scale_rejected(self):
        for eid in experiment_ids():
            with pytest.raises(InvalidParameterError):
                run_experiment(eid, scale="galactic")


class TestExactExperiments:
    """The enumeration-based experiments are fast enough to run in tests
    and their pass criteria are exact (zero violations)."""

    def test_e05_no_violations(self):
        result = run_experiment("e05", scale="small")
        assert result.summary["lemma_4_2_violations (corrected constant; expect 0)"] == 0
        assert result.summary["lemma_5_1_violations (paper: 0)"] == 0
        assert result.summary["max_lemma_4_1_identity_gap (≈0)"] < 1e-10

    def test_e06_no_violations(self):
        result = run_experiment("e06", scale="small")
        assert result.summary["violations (paper: 0)"] == 0
        assert result.summary["instances_checked"] > 0

    def test_e10_no_violations(self):
        result = run_experiment("e10", scale="small")
        assert result.summary["claim_3_1_violations (paper: 0)"] == 0
        assert result.summary["prop_5_2_violations (paper: 0)"] == 0
        assert result.summary["lemma_5_5_violations (paper: 0)"] == 0

    def test_e11_no_violations(self):
        result = run_experiment("e11", scale="small")
        assert result.summary["violations (paper: 0)"] == 0
        assert 0.0 < result.summary["tightest_ratio"] <= 1.0

    def test_results_render(self):
        result = run_experiment("e10", scale="small")
        assert "E10" in result.render()
