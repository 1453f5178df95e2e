"""End-to-end benchmark of the q*-search experiments.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                                  [--trace 0|1] [--out FILE] [--smoke]

Each workload runs in its own fresh interpreter (``workload.py``), one
after another; two more interpreters only time the set-up, so
``setup_s`` is a median over three.  The command prints every metric with
its name and unit, checks the experiment's outputs, writes the full
record to ``--out`` (default ``.e2e_bench/result.json``) and ends with one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced pass with ``--trace 1``.  Without ``--workload`` every workload
runs traced, the metrics are keyed ``<workload>.<metric>``, and the
three e01 workloads must return identical rows.

``--smoke`` runs every workload on the experiments' smoke scale with one
timed pass and one set-up, in well under 30 seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from catalog import WORKLOADS, load_benchmark, units  # noqa: E402

#: Fresh interpreters whose set-up times ``setup_s`` is the median of.
SETUP_SAMPLES = 3
#: A workload that has not finished by then is killed and the run fails.
DEADLINE_S = 175.0
WORK_DIR = os.path.join(ROOT, ".e2e_bench")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One thread per process: the pool workers are the only parallelism.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(args: List[str], timeout: float) -> Dict[str, Any]:
    """Run ``workload.py`` with ``args``; return its last-line JSON record.

    The child leads its own process group so a timeout also takes down
    its pool workers; the child is always waited for.
    """
    command = [sys.executable, os.path.join(HERE, "workload.py"), *args]
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"workload timed out after {timeout:.0f}s: {' '.join(args)}")
    if child.returncode != 0:
        raise RuntimeError(
            f"workload exited {child.returncode}: {' '.join(args)}\n{stderr.strip()}"
        )
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"workload printed no record: {' '.join(args)}")
    return json.loads(lines[-1])


def failed_record(name: str, scale: str, error: str) -> Dict[str, Any]:
    """The record of a workload whose interpreter crashed or timed out:
    the points of one pass count as attempted and failed."""
    workload = WORKLOADS[name]
    points = len(checks.reference_q_stars(workload.experiment, scale, checks.load_references()))
    return {
        "workload": name,
        "attempted": points,
        "failed": points,
        "failures": [{"error": error}],
        "rows": None,
        "end_to_end": {},
        "per_layer": None,
    }


def run_workload(name: str, options: argparse.Namespace) -> Dict[str, Any]:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(options.seed), "--work-dir", WORK_DIR]
    try:
        setups = [
            run_child([*common, "--setup-only"], timeout=deadline - time.monotonic())
            for _ in range(options.setup_samples - 1)
        ]
        record = run_child(
            [
                *common,
                "--seconds", str(options.seconds),
                "--trace", str(options.trace),
                "--scale", options.scale,
            ],
            timeout=deadline - time.monotonic(),
        )
    except (RuntimeError, ValueError) as error:  # ValueError: unparsable record
        return failed_record(name, options.scale, str(error))
    setups.append(record)
    record["setup_samples"] = [setup["setup_s"] for setup in setups]
    record["raw_setup_samples"] = [setup["raw_setup_s"] for setup in setups]
    record["setup_rss_samples"] = [setup["setup_rss_mb"] for setup in setups]
    measured = {
        "ns_per_ref_sample": (record["ns_per_ref_sample"] or {}).get("median"),
        "setup_s": statistics.median(record["setup_samples"]),
        "setup_rss_mb": statistics.median(record["setup_rss_samples"]),
    }
    # A run with failed points has no per-sample figure; the rest is kept.
    record["end_to_end"] = {
        metric["name"]: measured[metric["name"]]
        for metric in load_benchmark()["end_to_end"]
        if measured[metric["name"]] is not None
    }
    return record


def cross_check_e01(records: Dict[str, Dict[str, Any]]) -> None:
    """Fail every point of an e01 workload whose rows differ from e01-cold's."""
    reference = records.get("e01-cold")
    for name, record in records.items():
        if reference is None or WORKLOADS[name].experiment != "e01" or name == "e01-cold":
            continue
        if record["rows"] != reference["rows"]:
            record["failures"].append({"cross_workload": "rows differ from e01-cold"})
            record["failed"] = record["attempted"]


def provenance() -> Dict[str, Any]:
    sha = None
    # Only a git checkout has a sha; git is not asked to search parent dirs.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="End-to-end q*-search benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(WORK_DIR, "result.json"))
    parser.add_argument("--smoke", action="store_true")
    options = parser.parse_args(argv)
    if options.trace is None:
        options.trace = 0 if options.workload else 1
    options.scale = "smoke" if options.smoke else "small"
    options.setup_samples = 1 if options.smoke else SETUP_SAMPLES
    if options.smoke:
        options.seconds = 0.0
    return options


def main(argv: Optional[List[str]] = None) -> int:
    options = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    unit = units(load_benchmark())
    names = [options.workload] if options.workload else list(WORKLOADS)
    records: Dict[str, Dict[str, Any]] = {}
    for name in names:
        records[name] = run_workload(name, options)
        record = records[name]
        wall = record.get("wall_s")
        print(
            f"{name}: wall_s median {wall['median']:.3f} s "
            f"[q1 {wall['q1']:.3f}, q3 {wall['q3']:.3f}, n={wall['n']}]"
            f"  peak_rss_mb {record['peak_rss_mb']:.1f}"
            if wall else f"{name}: no timed pass completed",
            flush=True,
        )
        if record.get("reference_samples_per_pass") is not None:
            print(f"  reference samples/pass {record['reference_samples_per_pass']:.6g}", flush=True)
        for metric_name, value in record["end_to_end"].items():
            print(f"  {metric_name} = {value:.6g} {unit[metric_name]}", flush=True)
        for metric_name, value in (record["per_layer"] or {}).items():
            print(f"  {metric_name} = {value:.6g} {unit[metric_name]}", flush=True)
        for failure in record["failures"]:
            print(f"  FAILED: {failure}", flush=True)
    cross_check_e01(records)

    attempted = sum(record["attempted"] for record in records.values())
    failed = sum(record["failed"] for record in records.values())
    os.makedirs(os.path.dirname(os.path.abspath(options.out)), exist_ok=True)
    with open(options.out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "provenance": provenance(),
                "seed": options.seed,
                "scale": options.scale,
                "seconds": options.seconds,
                "workloads": records,
            },
            handle,
            indent=2,
        )
        handle.write("\n")

    metrics: Dict[str, Any] = {}
    for name, record in records.items():
        chosen = (record["per_layer"] or {}) if options.trace else record["end_to_end"]
        for metric_name, value in chosen.items():
            key = metric_name if options.workload else f"{name}.{metric_name}"
            metrics[key] = {"value": value, "unit": unit[metric_name]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
