"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.engine import get_engine, set_engine


class TestTestCommand:
    def test_threshold_on_uniform(self, capsys):
        code = main(
            [
                "test",
                "--tester",
                "threshold",
                "--input",
                "uniform",
                "--n",
                "256",
                "--k",
                "8",
                "--trials",
                "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "P[accept]" in out
        assert "ThresholdRuleTester" in out

    def test_centralized_on_far_input(self, capsys):
        code = main(
            [
                "test",
                "--tester",
                "centralized",
                "--input",
                "two_level",
                "--n",
                "256",
                "--trials",
                "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        accept_rate = float(out.strip().rsplit(" ", 1)[-1])
        assert accept_rate < 0.5

    @pytest.mark.parametrize("input_name", ["paninski", "zipf", "heavy_hitter"])
    def test_all_inputs_constructible(self, input_name, capsys):
        code = main(
            [
                "test",
                "--input",
                input_name,
                "--n",
                "128",
                "--k",
                "4",
                "--trials",
                "40",
            ]
        )
        assert code == 0


class TestComplexityCommand:
    def test_reports_q_star_and_bound(self, capsys):
        code = main(
            [
                "complexity",
                "--tester",
                "threshold",
                "--n",
                "256",
                "--k",
                "16",
                "--trials",
                "120",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "empirical q* =" in out
        assert "Theorem 1.1 lower bound" in out


class TestSeedValidation:
    def test_negative_seed_is_a_clean_error(self, capsys):
        code = main(
            ["complexity", "--n", "64", "--k", "4", "--seed", "-1", "--trials", "50"]
        )
        assert code == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err


class TestExperimentCommand:
    def test_runs_exact_experiment(self, capsys):
        code = main(["experiment", "e10", "--scale", "small"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E10" in out
        assert "claim_3_1_violations" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        code = main(["experiment", "e99"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestWarmReplay:
    def test_warm_replay_matches_cold_run(self, tmp_path, capsys):
        argv = ["experiment", "e01", "--scale", "smoke", "--cache-dir", str(tmp_path)]
        previous = get_engine()
        try:
            outputs = []
            for _ in range(2):
                assert main(argv) == 0
                outputs.append(capsys.readouterr().out)
        finally:
            set_engine(previous)
        cold, warm = outputs
        marker = "-- engine metrics --"
        assert cold.split(marker)[0] == warm.split(marker)[0]
        assert "  calibration_misses: 0\n" not in cold
        assert "  samples_drawn: 0\n" in warm
        assert "  calibration_misses: 0\n" in warm


class TestBoundsCommand:
    def test_prints_all_theorems(self, capsys):
        code = main(["bounds", "--n", "4096", "--k", "16", "--eps", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Theorem 1.1" in out
        assert "Theorem 1.2" in out
        assert "Theorem 1.3" in out
        assert "Theorem 1.4" in out

    def test_regime_violations_reported_not_raised(self, capsys):
        # k > sqrt(n) puts Theorem 1.3 outside its regime.
        code = main(["bounds", "--n", "64", "--k", "32", "--eps", "0.5"])
        assert code == 0
        assert "outside regime" in capsys.readouterr().out
