"""Tests for engine metrics and the warm-cache zero-execution guarantee."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.engine import AcceptanceCache, EngineMetrics, collect_metrics, engine_context
from repro.engine.metrics import COUNTER_NAMES

N, EPS = 64, 0.5


class TestEngineMetrics:
    def test_starts_zeroed(self):
        metrics = EngineMetrics()
        assert all(metrics.get(name) == 0 for name in COUNTER_NAMES)

    def test_count_and_get(self):
        metrics = EngineMetrics()
        metrics.count("protocol_trials", 100)
        metrics.count("protocol_trials", 50)
        metrics.count("cache_hits")
        assert metrics.get("protocol_trials") == 150
        assert metrics.get("cache_hits") == 1

    def test_timed_accumulates_wall_time(self):
        metrics = EngineMetrics()
        with metrics.timed():
            pass
        with metrics.timed():
            pass
        assert metrics.get("wall_time_s") > 0

    def test_merge_folds_counters(self):
        a, b = EngineMetrics(), EngineMetrics()
        a.count("protocol_trials", 10)
        b.count("protocol_trials", 5)
        b.count("cache_misses", 2)
        a.merge(b)
        assert a.get("protocol_trials") == 15
        assert a.get("cache_misses") == 2

    def test_reset(self):
        metrics = EngineMetrics()
        metrics.count("samples_drawn", 99)
        metrics.reset()
        assert metrics.get("samples_drawn") == 0

    def test_snapshot_keeps_counts_integral(self):
        metrics = EngineMetrics()
        metrics.count("protocol_trials", 10)
        snap = metrics.snapshot()
        assert snap["protocol_trials"] == 10
        assert isinstance(snap["protocol_trials"], int)
        assert set(COUNTER_NAMES) <= set(snap)

    def test_summary_line_mentions_core_counters(self):
        metrics = EngineMetrics()
        metrics.count("protocol_trials", 7)
        line = metrics.summary_line()
        assert "trials=7" in line
        assert "wall=" in line


class TestCollectMetrics:
    def test_scopes_and_merges_back(self):
        tester = repro.CentralizedCollisionTester(N, EPS, q=16)
        dist = repro.uniform(N)
        with collect_metrics() as outer:
            tester.accept_batch(dist, 50, rng=0)
            before = outer.get("protocol_trials")
            with collect_metrics() as inner:
                tester.accept_batch(dist, 30, rng=0)
            assert inner.get("protocol_trials") == 30
            # The nested scope's work merges back into the outer scope.
            assert outer.get("protocol_trials") == before + 30
        assert before == 50

    def test_engine_execution_counts_work(self):
        protocol = repro.SimultaneousProtocol.homogeneous(
            repro.GraphStatisticPlayer(repro.complete_graph(8), 0),
            num_players=4,
            num_samples=8,
            referee=repro.ThresholdRule(2, num_players=4),
        )
        with collect_metrics() as metrics:
            protocol.run_batch(repro.uniform(N), 200, rng=1)
        assert metrics.get("protocol_trials") == 200
        assert metrics.get("samples_drawn") == 200 * 4 * 8
        assert metrics.get("tiles_executed") >= 1
        assert metrics.get("rng_blocks") >= 1
        assert metrics.get("wall_time_s") > 0


class TestWarmCacheZeroExecutions:
    """ISSUE acceptance criterion: a repeated search with a warm cache
    performs zero new protocol executions, observable via the counters."""

    def _search(self):
        return repro.empirical_sample_complexity(
            lambda q: repro.ThresholdRuleTester(N, EPS, k=8, q=q),
            n=N,
            epsilon=EPS,
            trials=80,
            rng=23,
        )

    def test_second_search_hits_cache_only(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        with engine_context(cache=cache):
            with collect_metrics() as cold:
                first = self._search()
            assert cold.get("cache_misses") > 0
            assert cold.get("protocol_trials") > 0

            with collect_metrics() as warm:
                second = self._search()
        assert warm.get("protocol_trials") == 0
        assert warm.get("samples_drawn") == 0
        assert warm.get("cache_misses") == 0
        assert warm.get("cache_hits") == cold.get("cache_misses")
        assert second.resource_star == first.resource_star
        assert second.curve == first.curve

    def test_cache_rates_match_uncached_run(self, tmp_path):
        uncached = self._search()
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            cached_cold = self._search()
            cached_warm = self._search()
        assert cached_cold.resource_star == uncached.resource_star
        assert cached_warm.curve == uncached.curve

    def test_no_cache_means_no_cache_counters(self):
        with collect_metrics() as metrics:
            self._search()
        assert metrics.get("cache_hits") == 0
        assert metrics.get("cache_misses") == 0
