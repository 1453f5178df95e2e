"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.engine import (
    ProcessPoolBackend,
    close_warm_backends,
    get_engine,
    set_engine,
)


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


class TestPoolComplexity:
    ARGV = [
        "complexity", "--tester", "threshold", "--n", "256", "--k", "8",
        "--eps", "0.5", "--chunk-elements", "20000",
    ]

    def test_pool_run_ships_kernels_and_matches_serial(self, capsys, monkeypatch):
        """At 20000 elements per tile each estimate spans several tiles,
        so the pool run ships kernels to its workers."""
        shipped = []
        ship = ProcessPoolBackend.map_accept_tiles

        def counting(self, *args):
            shipped.append(len(args[2]))
            return ship(self, *args)

        monkeypatch.setattr(ProcessPoolBackend, "map_accept_tiles", counting)
        previous = get_engine()
        try:
            outputs = []
            for workers in ("1", "2"):
                assert main(self.ARGV + ["--workers", workers]) == 0
                outputs.append(capsys.readouterr().out.splitlines())
        finally:
            set_engine(previous)
            close_warm_backends()
        serial, pool = outputs
        assert shipped
        assert "empirical q* = 68" in serial
        assert serial[-1].startswith("engine: backend=serial ")
        assert pool[-1].startswith("engine: backend=shm ")
        assert serial[:-1] == pool[:-1]

    def test_backend_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGV + ["--backend", "shm"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err


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
        """The help text names no id range; the error lists the ids."""
        from repro.experiments import experiment_ids

        code = main(["experiment", "e99"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert all(repr(eid) in err for eid in experiment_ids())


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


class TestRunAllCommand:
    def test_runs_the_selected_experiments(self, capsys):
        previous = get_engine()
        try:
            code = main(["run-all", "--scale", "smoke", "--only", "e05", "E10"])
        finally:
            set_engine(previous)
        assert code == 0
        out = capsys.readouterr().out
        assert "== E05:" in out
        assert "== E10:" in out
        assert "== E01:" not in out
        assert out.rstrip().endswith("ran 2 experiments at scale 'smoke'")

    def test_list_scales_prints_every_plan_size_and_runs_nothing(self, capsys):
        from repro.experiments import experiment_ids, get_spec

        assert main(["run-all", "--list-scales"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == experiment_ids()
        spec = get_spec("e01")
        assert lines[0] == "e01: " + ", ".join(
            f"{name} ({len(spec.plan(name))} points)" for name in spec.scale_names()
        )

    def test_experiment_list_scales(self, capsys):
        assert main(["experiment", "e05", "--list-scales"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("e05: smoke (")
        assert len(out.splitlines()) == 1

    def test_checkpointed_rerun_prints_the_same_tables(self, tmp_path, capsys):
        argv = [
            "run-all", "--scale", "smoke", "--only", "e10",
            "--checkpoint-dir", str(tmp_path),
        ]
        previous = get_engine()
        try:
            assert main(argv) == 0
            cold = capsys.readouterr().out
            assert main(argv + ["--resume"]) == 0
            resumed = capsys.readouterr().out
        finally:
            set_engine(previous)
        assert (tmp_path / "e10" / "smoke-seed0" / "point-0001.json").exists()
        marker = "-- engine metrics --"
        assert "  sweep_points: 2\n" in cold
        assert marker not in resumed  # both points restored, none computed
        assert cold.split(marker)[0] == resumed.split("-- provenance")[0]


class TestBatteryCommand:
    def test_smoke_battery_reports_every_plugin_and_passes(self, capsys):
        from repro.core.plugins import registered_plugins

        assert main(["battery", "--scale", "smoke"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "battery: scale=smoke n=64 eps=0.5 trials=200 input=uniform chunk=16"
        )
        names = [line.split()[0] for line in lines[3:]]
        assert names == list(registered_plugins())

    def test_flags_override_the_preset(self, capsys):
        argv = [
            "battery", "--n", "32", "--trials", "40", "--input", "two_level",
            "--chunk", "3", "--only", "collision-exact",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "battery: scale=smoke n=32 eps=0.5 trials=40 input=two_level chunk=3"
        )
        assert [line.split()[0] for line in lines[3:]] == ["collision-exact"]

    def test_unknown_plugin_is_a_clean_error(self, capsys):
        assert main(["battery", "--only", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown streaming plugins ['nope']")

    def test_unhealthy_row_exits_one(self, capsys, monkeypatch):
        import dataclasses

        from repro.core import battery

        real = battery.run_battery

        def over_bound(*args, **kwargs):
            rows = real(*args, **kwargs)
            return [dataclasses.replace(rows[0], within_bound=False), *rows[1:]]

        monkeypatch.setattr(battery, "run_battery", over_bound)
        assert main(["battery", "--only", "collision-exact", "distinct-exact"]) == 1
        captured = capsys.readouterr()
        assert " OVER " in captured.out
        assert "battery: FAILED" in captured.err
