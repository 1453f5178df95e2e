"""Streaming-layer benchmark — batch parity + constant-memory footprint.

Two claims recorded in ``BENCH_streaming.json``:

* streaming the sample matrix through ``update()``/``finalize()`` —
  in 16-wide chunks and in one ``chunk = q`` block, the engine's path —
  produces verdicts **bit-identical** to the batch statistic, for exact
  and sketched testers alike, at a throughput within a small constant
  factor of the all-at-once batch path (each time is the median of
  ``REPEATS`` runs; none is asserted);
* the streamed peak state (declared ``state_bytes`` x trials, confirmed
  by ``measured_state_bytes``) is a small fraction of the full sample
  matrix a batch tester must hold — the memory win that motivates the
  layer (see docs/architecture.md, "The streaming layer").
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np
from conftest import host_provenance

from repro.core.players import collision_counts
from repro.core.streaming import (
    StreamingCollisionTester,
    measured_state_bytes,
    run_streaming,
)
from repro.core.testers import CentralizedCollisionTester
from repro.distributions.discrete import uniform
from repro.rng import ensure_rng

BENCH_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_streaming.json"
)

N, EPS, TRIALS, SEED, CHUNK = 256, 0.5, 2000, 0, 16
SKETCH_Q, SKETCH_BUCKETS = 512, 16
REPEATS = 5


def _timed(fn, *args):
    """``fn(*args)`` and the median wall of ``REPEATS`` calls."""
    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        walls.append(time.perf_counter() - start)
    return result, statistics.median(walls)


def _peak_state_bytes(tester, matrix):
    state = tester.init_state(matrix.shape[0])
    peak = measured_state_bytes(state)
    for start in range(0, tester.q, CHUNK):
        tester.update(state, matrix[:, start : start + CHUNK])
        peak = max(peak, measured_state_bytes(state))
    tester.finalize(state)
    return peak


def test_bench_streaming_vs_batch():
    exact = StreamingCollisionTester(N, EPS)
    batch = CentralizedCollisionTester(N, EPS)
    matrix = uniform(N).sample_matrix(TRIALS, exact.q, ensure_rng(SEED))

    streamed, streamed_s = _timed(run_streaming, exact, matrix, CHUNK)
    oneshot, oneshot_s = _timed(run_streaming, exact, matrix, exact.q)
    batch_verdicts, batch_s = _timed(
        lambda m: collision_counts(m) <= batch.statistic_threshold, matrix
    )
    exact_identical = np.array_equal(streamed, batch_verdicts) and np.array_equal(
        oneshot, batch_verdicts
    )

    # Sketched tester at a long stream: O(B) state vs an O(q) matrix row.
    sketched = StreamingCollisionTester(
        N, EPS, q=SKETCH_Q, num_buckets=SKETCH_BUCKETS, threshold=float(SKETCH_Q)
    )
    long_matrix = uniform(N).sample_matrix(TRIALS, SKETCH_Q, ensure_rng(SEED))
    sketch_streamed, sketch_s = _timed(
        run_streaming, sketched, long_matrix, CHUNK
    )
    sketch_oneshot, sketch_oneshot_s = _timed(
        run_streaming, sketched, long_matrix, SKETCH_Q
    )
    sketch_oracle, _ = _timed(sketched.batch_verdicts, long_matrix)
    sketch_identical = np.array_equal(
        sketch_streamed, sketch_oracle
    ) and np.array_equal(sketch_oneshot, sketch_oracle)

    sketch_peak = _peak_state_bytes(sketched, long_matrix)
    matrix_bytes = long_matrix.nbytes
    memory_ratio = sketch_peak / matrix_bytes

    payload = {
        "benchmark": "streaming-vs-batch",
        "n": N,
        "epsilon": EPS,
        "trials": TRIALS,
        "seed": SEED,
        "chunk": CHUNK,
        "exact_q": exact.q,
        "exact_identical": exact_identical,
        "exact_streamed_s": round(streamed_s, 6),
        "exact_batch_s": round(batch_s, 6),
        "exact_slowdown": round(streamed_s / max(batch_s, 1e-9), 2),
        "exact_oneshot_s": round(oneshot_s, 6),
        "exact_oneshot_slowdown": round(oneshot_s / max(batch_s, 1e-9), 2),
        "sketch_q": SKETCH_Q,
        "sketch_buckets": SKETCH_BUCKETS,
        "sketch_identical_to_oracle": sketch_identical,
        "sketch_streamed_s": round(sketch_s, 6),
        "sketch_oneshot_s": round(sketch_oneshot_s, 6),
        "sketch_state_bytes_peak": sketch_peak,
        "sketch_state_bytes_declared_total": sketched.state_bytes * TRIALS,
        "batch_matrix_bytes": matrix_bytes,
        "sketch_memory_ratio": round(memory_ratio, 4),
        "repeats": REPEATS,
        "provenance": host_provenance(),
    }
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert exact_identical, payload
    assert sketch_identical, payload
    assert sketch_peak <= sketched.state_bytes * TRIALS, payload
    # The memory win: streamed sketch state is a small fraction of the
    # matrix a batch tester must materialise.
    assert memory_ratio <= 0.25, payload
