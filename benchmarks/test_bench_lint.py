"""Lint-gate benchmark — cold vs warm incremental-cache wall time.

Lints the shipped ``src`` tree twice against a fresh cache directory —
once cold (every file parsed and checked) and once warm (every unchanged
file replayed from the cache) — and records both wall times, the cache
counters and the host's provenance in ``BENCH_lint.json`` at the repo
root.  The acceptance criteria pinned here:

* the warm run replays **every** file from the cache (hits == files,
  misses == 0) and is **no slower** than the cold run (with slack for
  timer noise on loaded CI runners);
* diagnostics are **byte-identical** between the two runs with the
  whole rule catalog active.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from conftest import host_provenance

from repro.engine.metrics import monotonic_clock
from repro.lint.cache import CacheStats
from repro.lint.runner import lint_paths

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_lint.json")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def _timed_lint(cache_dir: str):
    stats = CacheStats()
    started = monotonic_clock()
    diagnostics = lint_paths([SRC], cache_dir=cache_dir, stats=stats)
    elapsed = monotonic_clock() - started
    return diagnostics, stats, elapsed


def test_bench_lint_cold_vs_warm_cache():
    cache_dir = tempfile.mkdtemp(prefix="repro-lint-bench-")
    try:
        cold_diags, cold_stats, cold_seconds = _timed_lint(cache_dir)
        warm_diags, warm_stats, warm_seconds = _timed_lint(cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    cold_lines = [d.format() for d in cold_diags]
    warm_lines = [d.format() for d in warm_diags]
    speedup = cold_seconds / max(warm_seconds, 1e-9)

    payload = {
        "benchmark": "lint-cold-vs-warm-cache",
        "files": int(cold_stats.files_total),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(speedup, 2),
        "cold_hits": int(cold_stats.hits),
        "cold_misses": int(cold_stats.misses),
        "warm_hits": int(warm_stats.hits),
        "warm_misses": int(warm_stats.misses),
        "diagnostics": len(cold_lines),
        "outputs_identical": cold_lines == warm_lines,
        "provenance": host_provenance(),
    }
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert cold_lines == warm_lines, payload
    # The shipped tree is the lint-clean meta-gate's subject; a dirty
    # tree here means the benchmark measured diagnosis, not caching.
    assert not cold_lines, cold_lines[:5]
    assert cold_stats.misses == cold_stats.files_total > 0, payload
    assert warm_stats.hits == warm_stats.files_total, payload
    assert warm_stats.misses == 0, payload
    # Warm replay skips parsing and every rule; allow
    # 1.5x slack for coarse timers and noisy neighbours.
    assert warm_seconds <= cold_seconds * 1.5, payload
