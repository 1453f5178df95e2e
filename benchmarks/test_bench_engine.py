"""Engine benchmark — serial vs. parallel wall time on the E1 small grid.

Runs the same E1 (Theorem 1.1) small-scale grid twice — once on
``SerialBackend``, once on the shared-memory fork pool at up to 4 workers
capped at the machine's CPU count (pre-warmed, auto-tiled) — asserts the
measured ``q_star`` rows are bit-identical, and records wall times, the
speedup and full execution provenance in ``BENCH_engine.json`` at the
repo root.

The ≥2× speedup criterion is only asserted on machines with at least
twice as many CPU cores as workers, and ≥1.2× on machines with at least
two; a one-worker pool cannot beat serial execution, so single-core
runners record the numbers without failing the suite.
"""

from __future__ import annotations

import json
import os
import time

from conftest import engine_provenance

from repro.engine import SerialBackend, collect_metrics, engine_context, make_backend
from repro.experiments import run_experiment

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_engine.json")
WORKERS = min(4, os.cpu_count() or 1)


def _timed_run(backend):
    with engine_context(backend=backend):
        with collect_metrics() as metrics:
            start = time.perf_counter()
            result = run_experiment("e01", scale="small", seed=0)
            elapsed = time.perf_counter() - start
    return result, elapsed, metrics.snapshot()


def test_bench_engine_serial_vs_parallel():
    serial = SerialBackend()
    serial_result, serial_s, serial_metrics = _timed_run(serial)

    pool = make_backend(WORKERS, kind="shm", fresh=True)
    try:
        # Warm the workers and measure dispatch cost before the clock
        # starts, so the recorded speedup is steady-state, not start-up.
        pool.warmup()
        pool_provenance = engine_provenance(pool)
        parallel_result, parallel_s, parallel_metrics = _timed_run(pool)
    finally:
        pool.close()

    # Determinism is unconditional: identical grids, identical q*.
    serial_rows = [row["q_star"] for row in serial_result.rows]
    parallel_rows = [row["q_star"] for row in parallel_result.rows]
    assert serial_rows == parallel_rows
    assert serial_metrics["protocol_trials"] == parallel_metrics["protocol_trials"]

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    payload = {
        "benchmark": "e01-small-grid",
        "workers": WORKERS,
        "serial_provenance": engine_provenance(serial),
        "parallel_provenance": pool_provenance,
        "cpu_count": os.cpu_count(),
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "rows_identical": serial_rows == parallel_rows,
        "q_star_rows": serial_rows,
        "serial_metrics": serial_metrics,
        "parallel_metrics": parallel_metrics,
    }
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # The speedup target needs real cores behind the pool.
    if (os.cpu_count() or 1) >= 2 * WORKERS:
        assert speedup >= 2.0, payload
    elif WORKERS >= 2:
        assert speedup >= 1.2, payload
