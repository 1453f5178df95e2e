"""Comparison-graph benchmark — sweep determinism + statistic throughput.

Two claims recorded in ``BENCH_graphs.json``:

* the **family complexity sweep** (experiment e20's engine) is
  bit-identical across 1/2/4 shared-memory workers — same per-family
  ``resource_star``, same probed curves — because every family searches
  on one shared root entropy and stop/continue decisions happen at
  RNG-block boundaries;
* the **vectorised explicit-edge statistic** beats the per-edge Python
  reference oracle by a wide margin (the refactor's perf floor: routing
  every tester through the graph layer must not cost the vectorisation).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from conftest import engine_provenance

from repro.core.graphs import cycle_graph, graph_statistic_block
from repro.distributions.discrete import uniform
from repro.engine import SerialBackend, engine_context, make_backend
from repro.stats import graph_family_complexity_sweep
from tests.oracles import graph_statistic_reference

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_graphs.json")

N, EPS, TRIALS, SEED = 128, 0.5, 200, 0
FAMILIES = ["complete", "bipartite", "matching", "cycle"]


def _sweep(backend=None):
    with engine_context(backend=backend or SerialBackend()):
        return graph_family_complexity_sweep(
            FAMILIES,
            N,
            EPS,
            trials=TRIALS,
            rng=SEED,
            sprt=True,
            sprt_max_trials=TRIALS,
        )


def _statistic_throughput():
    graph = cycle_graph(64)
    samples = uniform(N).sample_matrix(2000, 64, SEED)
    start = time.perf_counter()
    fast = graph_statistic_block(graph, samples)
    fast_s = time.perf_counter() - start
    start = time.perf_counter()
    slow = graph_statistic_reference(graph, samples)
    slow_s = time.perf_counter() - start
    assert np.array_equal(fast, slow)
    return fast_s, slow_s


def test_bench_graph_family_sweep():
    serial = _sweep()
    worker_results = {1: serial}
    pool_provenance = {}
    for workers in (2, 4):
        pool = make_backend(workers, kind="shm", fresh=True)
        try:
            pool.warmup()
            pool_provenance[str(workers)] = engine_provenance(pool)
            worker_results[workers] = _sweep(backend=pool)
        finally:
            pool.close()
    sweep_identical = all(
        worker_results[w][family].resource_star == serial[family].resource_star
        and worker_results[w][family].curve == serial[family].curve
        for w in (2, 4)
        for family in FAMILIES
    )

    fast_s, slow_s = _statistic_throughput()
    speedup = slow_s / max(fast_s, 1e-9)

    payload = {
        "benchmark": "comparison-graph-family-sweep",
        "n": N,
        "epsilon": EPS,
        "trials_per_level": TRIALS,
        "seed": SEED,
        "families": FAMILIES,
        "resource_star": {f: serial[f].resource_star for f in FAMILIES},
        "resource_star_by_workers": {
            str(w): {f: r[f].resource_star for f in FAMILIES}
            for w, r in worker_results.items()
        },
        "provenance_by_workers": pool_provenance,
        "sweep_identical_across_workers": sweep_identical,
        "statistic_vectorized_s": round(fast_s, 6),
        "statistic_reference_s": round(slow_s, 6),
        "statistic_speedup": round(speedup, 2),
    }
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert sweep_identical, payload
    # Dense families must dominate sparse ones at equal (n, ε).
    dense_worst = max(serial[f].resource_star for f in ("complete", "bipartite"))
    sparse_best = min(serial[f].resource_star for f in ("matching", "cycle"))
    assert dense_worst <= sparse_best, payload
    assert speedup >= 3.0, payload
