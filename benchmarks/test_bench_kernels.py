"""Kernel-substrate benchmark — fixed budgets vs block-granular SPRT.

Runs the same empirical sample-complexity search twice — once with the
fixed per-level Monte-Carlo budget, once in sequential (``sprt=True``)
mode — and records both trial counts in ``BENCH_kernels.json`` at the
repo root.  The acceptance criteria pinned here:

* the SPRT's own early stopping saves **at least 30 %** of the trials
  its probes would have run to the cap (easy levels stop after one RNG
  block): ``sprt_trials_saved / (sprt_protocol_trials +
  sprt_trials_saved) >= 0.30``;
* the SPRT search spends no more protocol trials than the fixed-budget
  search.  Both stop probing a level at its first failing side, so this
  compares sequential stopping alone, not the side short-circuit;
* its verdicts are **bit-identical across 1/2/4 workers** — same
  ``resource_star``, same curve, because stop/continue decisions happen
  only at RNG-block boundaries.
"""

from __future__ import annotations

import json
import os

from conftest import engine_provenance, host_provenance

from repro.core import CentralizedCollisionTester
from repro.engine import (
    SerialBackend,
    collect_metrics,
    engine_context,
    make_backend,
)
from repro.stats import empirical_sample_complexity

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json")

N, EPS, TRIALS, SEED = 256, 0.5, 300, 0


def factory(q: int) -> CentralizedCollisionTester:
    return CentralizedCollisionTester(N, EPS, q=q)


def _search(sprt: bool, backend=None):
    with engine_context(backend=backend or SerialBackend()):
        with collect_metrics() as metrics:
            # Cap sequential probes at the fixed per-level budget so the
            # comparison is like-for-like: the SPRT can only stop early.
            result = empirical_sample_complexity(
                factory,
                N,
                EPS,
                trials=TRIALS,
                rng=SEED,
                sprt=sprt,
                sprt_max_trials=TRIALS,
            )
    return result, metrics.snapshot()


def test_bench_sprt_vs_fixed_budget():
    fixed_result, fixed_metrics = _search(sprt=False)
    sprt_result, sprt_metrics = _search(sprt=True)

    fixed_trials = fixed_metrics["protocol_trials"]
    sprt_trials = sprt_metrics["protocol_trials"]
    sprt_saved = sprt_metrics.get("sprt_trials_saved", 0)
    reduction = 1.0 - sprt_trials / fixed_trials
    saved_ratio = sprt_saved / (sprt_trials + sprt_saved)

    # Worker-count invariance of the sequential search: identical
    # resource_star and identical per-level rates under 2 and 4 workers.
    worker_results = {1: sprt_result}
    pool_provenance = {}
    for workers in (2, 4):
        pool = make_backend(workers, kind="shm", fresh=True)
        try:
            pool.warmup()
            pool_provenance[str(workers)] = engine_provenance(pool)
            worker_results[workers], _ = _search(sprt=True, backend=pool)
        finally:
            pool.close()
    stars = {w: r.resource_star for w, r in worker_results.items()}
    curves = {w: r.curve for w, r in worker_results.items()}
    verdicts_identical = (
        len(set(stars.values())) == 1
        and curves[1] == curves[2] == curves[4]
    )

    payload = {
        "benchmark": "sprt-vs-fixed-complexity-search",
        "n": N,
        "epsilon": EPS,
        "fixed_trials_per_level": TRIALS,
        "seed": SEED,
        "fixed_protocol_trials": int(fixed_trials),
        "sprt_protocol_trials": int(sprt_trials),
        "trial_reduction": round(reduction, 4),
        "fixed_resource_star": fixed_result.resource_star,
        "sprt_resource_star": sprt_result.resource_star,
        "sprt_early_stops": int(sprt_metrics.get("sprt_early_stops", 0)),
        "sprt_trials_saved": int(sprt_saved),
        "sprt_saved_ratio": round(saved_ratio, 4),
        "resource_star_by_workers": {str(w): s for w, s in stars.items()},
        "provenance_by_workers": pool_provenance,
        "verdicts_identical_across_workers": verdicts_identical,
        "provenance": host_provenance(),
    }
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert verdicts_identical, payload
    assert saved_ratio >= 0.30, payload
    assert sprt_trials <= fixed_trials, payload
    # Both searches answer the same question; the SPRT must land within
    # the search's own bracket resolution of the fixed answer.
    assert 0.25 <= sprt_result.resource_star / fixed_result.resource_star <= 4.0
