"""The calibration memo: Monte-Carlo threshold calibrations on the cache.

Every calibrator in ``core/graphs.py`` and ``core/streaming.py`` is
wrapped by :func:`~repro.engine.cache.cached_calibration`.  These tests
pin its contract: a cold (computed and written) and a warm (read back)
result equal the uncached result bit for bit, only reusable seeds are
cached, keys separate everything a calibration depends on, and broken
entries are recomputed.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphs import (
    ComparisonGraph,
    build_family_graph,
    calibrate_distinct_threshold,
    calibrate_dithered_statistic,
    calibrate_statistic_threshold,
    cycle_graph,
    matching_graph,
    midpoint_threshold,
    statistic_alarm_probabilities,
)
from repro.core.streaming import (
    StreamingCollisionTester,
    StreamingDistinctTester,
    calibrate_sketch_threshold,
)
from repro.core.testers import ThresholdRuleTester
from repro.engine import AcceptanceCache, collect_metrics, engine_context
from repro.engine.cache import CALIBRATION_PREFIX

TRIALS = 200


def _calibration_files(directory: str) -> list:
    return sorted(
        name for name in os.listdir(directory) if name.startswith(CALIBRATION_PREFIX)
    )


def _assert_cold_warm_uncached(call: Callable[[], Any]) -> None:
    uncached = call()
    with tempfile.TemporaryDirectory() as directory:
        with engine_context(cache=AcceptanceCache(directory)):
            with collect_metrics() as cold_metrics:
                cold = call()
            with collect_metrics() as warm_metrics:
                warm = call()
        assert len(_calibration_files(directory)) == 1
    # repr equality is bit equality for floats and keeps int vs float.
    assert repr(cold) == repr(warm) == repr(uncached)
    assert cold_metrics.get("calibration_misses") == 1
    assert warm_metrics.get("calibration_hits") == 1
    assert warm_metrics.get("calibration_misses") == 0
    for metrics in (cold_metrics, warm_metrics):
        assert metrics.get("cache_hits") == metrics.get("cache_misses") == 0


graph_cases = st.tuples(
    st.sampled_from(["complete", "cycle", "bipartite", "matching"]),
    st.integers(min_value=8, max_value=256),
    st.integers(min_value=3, max_value=24),
    st.floats(min_value=0.1, max_value=0.95),
    st.integers(min_value=0, max_value=2**32),
)


class TestBitIdentical:
    @settings(max_examples=25, deadline=None)
    @given(graph_cases)
    def test_alarm_probabilities(self, case):
        family, n, q, epsilon, seed = case
        graph = build_family_graph(family, q)
        threshold = midpoint_threshold(graph, n, epsilon)
        _assert_cold_warm_uncached(
            lambda: statistic_alarm_probabilities(
                graph, n, epsilon, threshold, TRIALS, seed
            )
        )

    @settings(max_examples=25, deadline=None)
    @given(graph_cases)
    def test_statistic_threshold(self, case):
        family, n, q, epsilon, seed = case
        graph = build_family_graph(family, q)
        _assert_cold_warm_uncached(
            lambda: calibrate_statistic_threshold(
                graph, n, epsilon / 8, trials=TRIALS, rng=seed
            )
        )

    @settings(max_examples=25, deadline=None)
    @given(graph_cases)
    def test_dithered_statistic(self, case):
        family, n, q, epsilon, seed = case
        graph = build_family_graph(family, q)
        _assert_cold_warm_uncached(
            lambda: calibrate_dithered_statistic(
                graph, n, epsilon / 4, trials=TRIALS, rng=seed
            )
        )

    @settings(max_examples=25, deadline=None)
    @given(graph_cases)
    def test_distinct_threshold(self, case):
        family, n, q, epsilon, seed = case
        graph = build_family_graph(family, q)
        _assert_cold_warm_uncached(
            lambda: calibrate_distinct_threshold(
                graph, n, epsilon, trials=TRIALS, rng=seed
            )
        )

    @settings(max_examples=25, deadline=None)
    @given(graph_cases, st.integers(min_value=2, max_value=16))
    def test_sketch_threshold(self, case, buckets):
        _, n, q, epsilon, seed = case
        tester = StreamingCollisionTester(
            n, epsilon, q=q, num_buckets=buckets, threshold=0.0
        )
        _assert_cold_warm_uncached(
            lambda: calibrate_sketch_threshold(
                tester.batch_statistic,
                n,
                epsilon,
                q,
                trials=TRIALS,
                rng=seed,
                statistic_token={"buckets": buckets},
            )
        )

    def test_seed_sequence_seeds_are_cached(self):
        graph = cycle_graph(6)
        seed = np.random.SeedSequence(entropy=5, spawn_key=(1, 2))
        _assert_cold_warm_uncached(
            lambda: calibrate_distinct_threshold(graph, 32, 0.5, TRIALS, seed)
        )


class TestBypass:
    @pytest.mark.parametrize("rng_factory", [lambda: np.random.default_rng(0), lambda: None])
    def test_generator_or_fresh_seed_writes_nothing(self, tmp_path, rng_factory):
        graph = cycle_graph(6)
        tester = StreamingCollisionTester(32, 0.5, q=6, num_buckets=4, threshold=0.0)
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            with collect_metrics() as metrics:
                statistic_alarm_probabilities(graph, 32, 0.5, 0.5, TRIALS, rng_factory())
                calibrate_statistic_threshold(graph, 32, 0.1, TRIALS, rng_factory())
                calibrate_dithered_statistic(graph, 32, 0.1, TRIALS, rng_factory())
                calibrate_distinct_threshold(graph, 32, 0.5, TRIALS, rng_factory())
                calibrate_sketch_threshold(
                    tester.batch_statistic, 32, 0.5, 6, TRIALS, rng_factory(), {"b": 4}
                )
        assert os.listdir(tmp_path) == []
        assert metrics.get("calibration_hits") == metrics.get("calibration_misses") == 0

    def test_unnamed_statistic_is_not_cached(self, tmp_path):
        tester = StreamingCollisionTester(32, 0.5, q=6, num_buckets=4, threshold=0.0)
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            calibrate_sketch_threshold(tester.batch_statistic, 32, 0.5, 6, TRIALS, 0)
        assert os.listdir(tmp_path) == []


class TestKeys:
    def _misses(self, tmp_path, calls) -> int:
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            with collect_metrics() as metrics:
                for call in calls:
                    call()
        return metrics.get("calibration_misses")

    def test_graph_family_separates_entries(self, tmp_path):
        calls = [
            lambda graph=graph: statistic_alarm_probabilities(
                graph, 32, 0.5, 0.5, TRIALS, 0
            )
            for graph in (cycle_graph(8), matching_graph(8))
        ]
        assert self._misses(tmp_path, calls) == 2
        assert len(_calibration_files(str(tmp_path))) == 2

    def test_graph_edges_separate_entries(self, tmp_path):
        path = ComparisonGraph(4, [(0, 1), (1, 2), (2, 3)])
        star = ComparisonGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert path.family == star.family and path.num_edges == star.num_edges
        calls = [
            lambda graph=graph: calibrate_distinct_threshold(graph, 16, 0.5, TRIALS, 0)
            for graph in (path, star)
        ]
        assert self._misses(tmp_path, calls) == 2
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            assert repr(calibrate_distinct_threshold(star, 16, 0.5, TRIALS, 0)) == repr(
                calibrate_distinct_threshold.__wrapped__(star, 16, 0.5, TRIALS, 0)
            )

    @pytest.mark.parametrize("tester_class", [StreamingCollisionTester, StreamingDistinctTester])
    def test_sketched_construction_writes_no_entry(self, tmp_path, tester_class):
        """The sketched cut is closed-form: nothing to calibrate or cache."""
        calls = [
            lambda buckets=buckets: tester_class(64, 0.5, q=16, num_buckets=buckets)
            for buckets in (8, 16, 8)
        ]
        assert self._misses(tmp_path, calls) == 0
        assert _calibration_files(str(tmp_path)) == []

    def test_threshold_rule_calibration_is_shared_across_k(self, tmp_path):
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            with collect_metrics() as metrics:
                few = ThresholdRuleTester(1024, 0.5, k=4, q=48)
                many = ThresholdRuleTester(1024, 0.5, k=64, q=48)
        assert metrics.get("calibration_misses") == 1
        assert metrics.get("calibration_hits") == 1
        uncached = ThresholdRuleTester(1024, 0.5, k=64, q=48)
        assert many.reject_threshold == uncached.reject_threshold
        assert few.player_reject_probability == many.player_reject_probability


class TestBrokenEntries:
    def _call(self):
        return calibrate_distinct_threshold(cycle_graph(6), 32, 0.5, TRIALS, 3)

    def test_truncated_entry_is_recomputed_and_overwritten(self, tmp_path):
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            expected = self._call()
            (name,) = _calibration_files(str(tmp_path))
            path = os.path.join(str(tmp_path), name)
            with open(path, "r+", encoding="utf-8") as handle:
                text = handle.read()
                handle.seek(0)
                handle.truncate()
                handle.write(text[: len(text) // 2])
            with collect_metrics() as metrics:
                assert repr(self._call()) == repr(expected)
        assert metrics.get("calibration_misses") == 1
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["value"] == expected

    @pytest.mark.parametrize("value", ["0.5", [0.5, "x"], [], True, None])
    def test_malformed_value_is_recomputed(self, tmp_path, value):
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            expected = self._call()
            (name,) = _calibration_files(str(tmp_path))
            path = os.path.join(str(tmp_path), name)
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            payload["value"] = value
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            with collect_metrics() as metrics:
                assert repr(self._call()) == repr(expected)
        assert metrics.get("calibration_misses") == 1

    def test_entry_copied_under_another_key_is_a_miss(self, tmp_path):
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            calibrate_distinct_threshold(cycle_graph(6), 32, 0.5, TRIALS, 3)
            (source,) = _calibration_files(str(tmp_path))
            calibrate_distinct_threshold(cycle_graph(6), 32, 0.5, TRIALS, 4)
            (target,) = set(_calibration_files(str(tmp_path))) - {source}
            shutil.copy(
                os.path.join(str(tmp_path), source), os.path.join(str(tmp_path), target)
            )
            with collect_metrics() as metrics:
                value = calibrate_distinct_threshold(cycle_graph(6), 32, 0.5, TRIALS, 4)
        assert metrics.get("calibration_misses") == 1
        assert repr(value) == repr(
            calibrate_distinct_threshold(cycle_graph(6), 32, 0.5, TRIALS, 4)
        )
