"""Self-tests of the end-to-end benchmark.

Run with ``python -m pytest benchmarks/e2e -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import work  # noqa: E402
from catalog import WORKLOADS, load_benchmark  # noqa: E402
from tracing import Tracer, list_schedule_makespan  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_arithmetic_on_a_nested_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(3.0)

    def middle():
        clock.advance(2.0)
        tracer.call("c", "leaf", leaf, (), {})

    def same_layer_again():
        clock.advance(4.0)

    def root():
        clock.advance(1.0)
        tracer.call("b", "middle", middle, (), {})
        clock.advance(1.0)
        # Nested inside an open span of layer "a": merged, no new span.
        tracer.call("a", "again", same_layer_again, (), {})

    tracer.call("a", "root", root, (), {})

    assert [(span.layer, span.name) for span in tracer.spans] == [
        ("a", "root"), ("b", "middle"), ("c", "leaf"),
    ]
    assert [span.parent for span in tracer.spans] == [None, 0, 1]
    totals = tracer.layer_totals()
    assert totals["a"] == {"calls": 1, "total_s": 11.0, "self_s": 6.0}
    assert totals["b"] == {"calls": 1, "total_s": 5.0, "self_s": 2.0}
    assert totals["c"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}
    assert sum(entry["self_s"] for entry in totals.values()) == tracer.spans[0].duration


def test_span_closes_and_counts_skip_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(2.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.call("a", "boom", boom, (), {}, count=lambda a, k, r: {"n": 1})
    span, = tracer.spans
    assert span.duration == 2.0 and span.counts == {}
    assert not tracer._stack


def test_list_schedule_makespan():
    assert list_schedule_makespan([3.0, 1.0, 1.0, 1.0], 2) == 3.0
    assert list_schedule_makespan([1.0, 1.0, 3.0], 2) == 4.0
    assert list_schedule_makespan([2.0, 2.0], 1) == 4.0


def _repro_bindings():
    """Every attribute of every loaded repro module and repro class."""
    bindings = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            bindings[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for member, member_value in list(vars(value).items()):
                    bindings[(name, attr, member)] = member_value
    return bindings


def _lookup(key):
    owner = sys.modules[key[0]]
    value = vars(owner)[key[1]]
    return vars(value)[key[2]] if len(key) == 3 else value


def test_tracer_restores_every_patched_attribute():
    import repro.experiments  # noqa: F401  (loads every layer's module)
    from repro.distributions.discrete import DiscreteDistribution
    from repro.engine import estimate

    before = _repro_bindings()
    original_sample = DiscreteDistribution.__dict__["sample"]
    original_estimate = estimate.estimate_acceptance
    with Tracer() as tracer:
        layers.install(tracer)
        assert DiscreteDistribution.__dict__["sample"] is not original_sample
        assert estimate.estimate_acceptance is not original_estimate
        assert sys.modules["repro.engine"].estimate_acceptance is not original_estimate
        patched = len(tracer._restore)
    assert patched > 20
    changed = [key for key, value in before.items() if _lookup(key) is not value]
    assert changed == []


def _e01_rows(q_stars):
    return [{"q_star": q, "lower_bound": 1.0} for q in q_stars]


def test_checker_fails_out_of_band_raised_and_diverging_passes():
    reference = [192, 112, 48, 48, 104, 104]
    good = _e01_rows(reference)
    assert checks.failed_points("e01", good, 6, reference) == []
    assert checks.failed_points("e01", _e01_rows([272, 104, 48, 32, 96, 104]), 6, reference) == []

    out_of_band = _e01_rows([192, 112, 1000, 48, 104, 104])
    assert checks.failed_points("e01", out_of_band, 6, reference) == [2]
    too_low = _e01_rows([192, 112, 20, 48, 104, 104])
    assert checks.failed_points("e01", too_low, 6, reference) == [2]

    below_theorem = _e01_rows(reference)
    below_theorem[4]["lower_bound"] = 200.0
    assert checks.failed_points("e01", below_theorem, 6, reference) == [4]

    assert checks.failed_points("e01", None, 6, reference) == list(range(6))

    other_pass = _e01_rows([192, 112, 48, 48, 104, 96])
    assert checks.failed_points("e01", other_pass, 6, reference, good) == list(range(6))
    assert checks.failed_points("e01", good, 6, reference, good) == []


def test_checker_reads_only_the_exact_e21_column():
    rows = [{"exact_q_star": 96, "b16_q_star": 8000}, {"exact_q_star": 600, "b16_q_star": 8000}]
    assert checks.failed_points("e21", rows, 2, [96, 152]) == [1]


def test_references_cover_both_scales():
    from repro.experiments import get_spec

    references = checks.load_references()
    for experiment in ("e01", "e21"):
        for scale in ("small", "smoke"):
            params = get_spec(experiment).scale_params(scale)
            points = checks.reference_q_stars(experiment, scale, references)
            assert len(points) == len(get_spec(experiment).plan(scale))
            searches = len(points) * len(params.get("budgets", [None]))
            weights = references["samples_per_q"][experiment][scale]
            assert len(weights["all"]) == len(weights["calibration"]) == searches


@pytest.mark.parametrize("threshold", [2, 3, 5, 96, 152, 192, 272, 1023, 1024, 3584])
def test_search_ladder_matches_the_library_search(threshold):
    from repro.stats.complexity import _search

    probed = []

    def evaluate(q):
        probed.append(q)
        return float(q >= threshold)

    q_star = _search(evaluate, 0.5, work.Q_MIN, 8000, work.RESOLUTION).resource_star
    assert sorted(work.search_ladder(q_star, 8000, False)) == sorted(probed)


def test_censored_search_ladder_doubles_up_to_the_cap():
    from repro.stats.complexity import SearchDivergedError, _search

    probed = []

    def evaluate(q):
        probed.append(q)
        return 0.0

    with pytest.raises(SearchDivergedError):
        _search(evaluate, 0.5, work.Q_MIN, 8000, work.RESOLUTION)
    assert work.search_ladder(8000, 8000, True) == probed


def test_reference_samples_weight_each_search():
    rows = [{"exact_q_star": 4, "exact_censored": False, "b8_q_star": 16, "b8_censored": True}]
    params = {"budgets": [None, 8], "q_max": 16}
    # Ladders 2, 4, 3 (sum 9) and, censored, 2, 4, 8, 16 (sum 30).
    assert work.reference_samples("e21", rows, params, [10.0, 1.0]) == [120.0]
    with pytest.raises(ValueError):
        work.reference_samples("e21", rows, params, [10.0])


def test_benchmark_json_matches_the_catalog():
    benchmark = load_benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


def test_smoke_run_emits_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "smoke.json"
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0

    benchmark = load_benchmark()
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"] for m in benchmark["per_layer"]}
    records = json.loads(out.read_text())["workloads"]
    assert set(records) == set(WORKLOADS)
    for record in records.values():
        assert set(record["end_to_end"]) == end_to_end
        assert set(record["per_layer"]) == per_layer
        assert all(value > 0 for value in record["end_to_end"].values())
    for name in ("e01-cold", "e01-warm", "e21-stream"):
        per_layer_values = records[name]["per_layer"]
        # At seed 0 a serial pass draws exactly the reference samples.
        assert per_layer_values["sampling.work_ratio"] == pytest.approx(1.0, rel=1e-3)
        assert per_layer_values["trace.coverage"] >= 0.9
    # Container layers do not count: the pool's parent sees no leaf layer.
    assert records["e01-shm2"]["per_layer"]["trace.coverage"] == 0.0


def test_a_raising_pass_is_reported_as_failed_points(tmp_path):
    script = "\n".join([
        "import runpy, sys",
        f"sys.path.insert(0, {HERE!r})",
        "import repro.experiments",
        "def forced(*args, **kwargs):",
        "    raise RuntimeError('forced failure')",
        "repro.experiments.run_experiment = forced",
        f"sys.argv = ['workload.py', '--workload', 'e01-cold', '--scale', 'smoke',"
        f" '--seconds', '0', '--trace', '1', '--work-dir', {str(tmp_path)!r}]",
        f"runpy.run_path({os.path.join(HERE, 'workload.py')!r}, run_name='__main__')",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    completed = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    # The smoke warm-up raised, so no timed pass ran.
    assert record["attempted"] == record["failed"] == 5
    assert "forced failure" in record["failures"][0]["error"]
    assert record["ns_per_ref_sample"] is None and record["per_layer"] is None


def test_a_crashed_workload_still_ends_with_the_result_line(tmp_path, monkeypatch, capsys):
    import run

    def crash(args, timeout):
        raise RuntimeError("workload exited 1")

    monkeypatch.setattr(run, "run_child", crash)
    assert run.main(["--workload", "e21-stream", "--out", str(tmp_path / "out.json")]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last == {"correct": False, "attempted": 2, "failed": 2, "metrics": {}}


def test_run_refuses_a_directory_without_the_library(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "e01-cold"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_compare_verdicts():
    from compare import verdict

    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [value * 0.8 for value in parent]
    assert verdict(parent, faster, 0.1, True, 10)[0] == "GAIN"
    assert verdict(parent, faster, 0.1, True, 1)[0] == "within bound"
    assert verdict(parent, [value * 1.2 for value in parent], 0.1, True, 10)[0] == "REGRESSION"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
    assert verdict(noisy, noisy, 0.1, True, 1)[0] == "unresolved"
    assert verdict(noisy, [1.0, 2.0, 3.0, 4.0, 5.0], 0.1, True, 1)[0] == "better, all runs"
    assert verdict(parent, faster, 0.1, False, 10)[0] == "REGRESSION"


def test_layer_install_rejects_unknown_layers():
    with Tracer() as tracer, pytest.raises(ValueError):
        layers.install(tracer, ("sampling", "nonsense"))


def test_argument_getter_applies_defaults():
    from tracing import argument

    def f(a, b=7, *, c=3):
        return a + b + c

    get_b = argument(f, "b")
    assert get_b((1,), {}) == 7 and get_b((1, 2), {}) == 2 and get_b((1,), {"b": 5}) == 5
