"""Engine benchmark — serial vs. parallel wall time on the E1 small grid.

Runs the same E1 (Theorem 1.1) small-scale grid on ``SerialBackend`` and
on the shared-memory fork pool at up to 4 workers capped at the machine's
CPU count (pre-warmed, auto-tiled).  Each backend gets one untimed pass,
so imports, first-touch allocations and the workers' first tiles are
paid before the clock starts.  Then serial and pool passes alternate,
``TIMED_PASSES`` of each against the one warm pool, so a slow spell of a
shared machine lands on both sides; the recorded walls are the medians,
i.e. steady state.  The test asserts the measured ``q_star`` rows are
bit-identical across every pass, and records wall times, the speedup and
full execution provenance in ``BENCH_engine.json`` at the repo root.

The ≥2× speedup criterion is only asserted on machines with at least
twice as many CPU cores as workers, and ≥1.2× on machines with at least
two; a one-worker pool cannot beat serial execution, so single-core
runners record the numbers without failing the suite.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from conftest import engine_provenance

from repro.engine import SerialBackend, collect_metrics, engine_context, make_backend
from repro.experiments import run_experiment

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_engine.json")
WORKERS = min(4, os.cpu_count() or 1)
TIMED_PASSES = 5


def _timed_run(backend):
    with engine_context(backend=backend):
        with collect_metrics() as metrics:
            start = time.perf_counter()
            result = run_experiment("e01", scale="small", seed=0)
            elapsed = time.perf_counter() - start
    return [row["q_star"] for row in result.rows], elapsed, metrics.snapshot()


def test_bench_engine_serial_vs_parallel():
    serial = SerialBackend()
    pool = make_backend(WORKERS, kind="shm", fresh=True)
    try:
        # Warm the workers and measure dispatch cost before the clock
        # starts, so the recorded speedup is steady-state, not start-up.
        pool.warmup()
        pool_provenance = engine_provenance(pool)
        serial_passes = [_timed_run(serial)[0]]
        parallel_passes = [_timed_run(pool)[0]]
        serial_walls, parallel_walls = [], []
        for _ in range(TIMED_PASSES):
            rows, elapsed, serial_metrics = _timed_run(serial)
            serial_passes.append(rows)
            serial_walls.append(elapsed)
            rows, elapsed, parallel_metrics = _timed_run(pool)
            parallel_passes.append(rows)
            parallel_walls.append(elapsed)
    finally:
        pool.close()
    serial_s = statistics.median(serial_walls)
    parallel_s = statistics.median(parallel_walls)

    # Determinism is unconditional: identical grids, identical q*.
    serial_rows = serial_passes[0]
    rows_identical = all(rows == serial_rows for rows in serial_passes + parallel_passes)
    assert rows_identical
    assert serial_metrics["protocol_trials"] == parallel_metrics["protocol_trials"]

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    payload = {
        "benchmark": "e01-small-grid",
        "workers": WORKERS,
        "serial_provenance": engine_provenance(serial),
        "parallel_provenance": pool_provenance,
        "cpu_count": os.cpu_count(),
        "timed_passes": TIMED_PASSES,
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "serial_pass_walls_s": [round(wall, 3) for wall in serial_walls],
        "parallel_pass_walls_s": [round(wall, 3) for wall in parallel_walls],
        "speedup": round(speedup, 3),
        "rows_identical": rows_identical,
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
