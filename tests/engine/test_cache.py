"""Tests for the on-disk acceptance-curve cache."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

import repro
from repro.engine import (
    AcceptanceCache,
    distribution_fingerprint,
    probe_key,
)
from repro.engine import tester_fingerprint as fingerprint_tester
from repro.engine.cache import CACHE_VERSION, cached_calibration, seed_fingerprint
from repro.exceptions import InvalidParameterError

N, EPS = 64, 0.5


def _key(trials=100, seed_key=(1, 0, 0), tester=None, dist=None):
    tester = tester or repro.ThresholdRuleTester(N, EPS, k=8, q=12)
    dist = dist or repro.uniform(N)
    seed = np.random.SeedSequence(entropy=42, spawn_key=seed_key)
    return probe_key(tester, dist, trials, seed)


class TestFingerprints:
    def test_distribution_fingerprint_is_content_addressed(self):
        assert distribution_fingerprint(repro.uniform(N)) == distribution_fingerprint(
            repro.uniform(N)
        )
        assert distribution_fingerprint(repro.uniform(N)) != distribution_fingerprint(
            repro.two_level_distribution(N, EPS)
        )
        assert distribution_fingerprint(repro.uniform(N)).startswith(f"n{N}-")

    def test_tester_fingerprint_separates_configs(self):
        a = fingerprint_tester(repro.ThresholdRuleTester(N, EPS, k=8, q=12))
        b = fingerprint_tester(repro.ThresholdRuleTester(N, EPS, k=8, q=16))
        c = fingerprint_tester(repro.CentralizedCollisionTester(N, EPS, q=12))
        assert a != b
        assert a["class"] == "ThresholdRuleTester"
        assert c["class"] == "CentralizedCollisionTester"

    def test_tester_fingerprint_covers_nested_protocol(self):
        fp = fingerprint_tester(repro.ThresholdRuleTester(N, EPS, k=8, q=12))
        assert "protocol" in fp
        assert len(fp["protocol"]["players"]) == 8

    def test_raw_protocol_fingerprint(self):
        protocol = repro.SimultaneousProtocol.homogeneous(
            repro.GraphStatisticPlayer(repro.complete_graph(6), 0),
            num_players=4,
            num_samples=6,
            referee=repro.ThresholdRule(2, num_players=4),
        )
        fp = fingerprint_tester(protocol)
        assert fp["class"] == "SimultaneousProtocol"
        assert len(fp["players"]) == 4

    def test_seed_fingerprint_distinguishes_spawn_keys(self):
        a = seed_fingerprint(np.random.SeedSequence(entropy=7, spawn_key=(1, 2)))
        b = seed_fingerprint(np.random.SeedSequence(entropy=7, spawn_key=(1, 3)))
        assert a != b

    def test_probe_key_is_json_serialisable(self):
        json.dumps(_key(), sort_keys=True)


class TestAcceptanceCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        assert cache.get_rate(key) is None
        cache.put_rate(key, 0.625)
        assert cache.get_rate(key) == pytest.approx(0.625)
        assert len(cache) == 1

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        cache.put_rate(_key(trials=100), 0.1)
        cache.put_rate(_key(trials=200), 0.9)
        assert cache.get_rate(_key(trials=100)) == pytest.approx(0.1)
        assert cache.get_rate(_key(trials=200)) == pytest.approx(0.9)
        assert len(cache) == 2

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        path = cache.put_rate(key, 0.5)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.get_rate(key) is None

    def test_undecodable_entry_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        path = cache.put_rate(key, 0.5)
        with open(path, "wb") as handle:
            handle.write(b"\xff\xfe\x00")
        assert cache.get_rate(key) is None

    def test_stale_version_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        path = cache.put_rate(key, 0.5)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["key"]["version"] = CACHE_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert cache.get_rate(key) is None

    def test_non_dict_stored_key_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        path = cache.put_estimate(key, {"rate": 0.5})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"key": [1, 2], "rate": 0.5, "estimate": {"rate": 0.5}}, handle)
        assert cache.get_rate(key) is None
        assert cache.get_estimate(key) is None
        cache.put_rate(key, 0.25)
        assert cache.get_rate(key) == pytest.approx(0.25)

    def test_entry_stored_under_another_key_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        wanted, other = _key(trials=100), _key(trials=200)
        path = cache.put_rate(wanted, 0.1)
        shutil.copy(cache.put_rate(other, 0.9), path)
        assert cache.get_rate(wanted) is None
        assert cache.get_estimate(wanted) is None
        assert cache.get_rate(other) == pytest.approx(0.9)
        cache.put_rate(wanted, 0.1)
        assert cache.get_rate(wanted) == pytest.approx(0.1)

    def test_tuple_and_list_keys_compare_equal(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        cache.put_rate({"version": CACHE_VERSION, "spawn": (1, 2)}, 0.5)
        assert cache.get_rate({"version": CACHE_VERSION, "spawn": [1, 2]}) == 0.5

    def test_len_and_clear_count_calibration_entries(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        cache.put_rate(_key(), 0.1)

        @cached_calibration(version=1)
        def calibrate(value, rng=0):
            return value / 2

        with repro.engine.engine_context(cache=cache):
            assert calibrate(3) == 1.5
        assert len(cache) == 2
        assert cache.clear() == 2
        assert os.listdir(tmp_path) == []

    def test_clear_removes_entries(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        cache.put_rate(_key(trials=100), 0.1)
        cache.put_rate(_key(trials=200), 0.2)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_entry_bytes_are_the_sorted_json_payload(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        estimate = {"rate": 0.625, "trials": 160, "verdict": None}
        path = cache.put_estimate(key, estimate)
        with open(path, "rb") as handle:
            stored = handle.read()
        payload = {"key": key, "estimate": estimate}
        assert stored == json.dumps(payload, sort_keys=True).encode("utf-8")

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        cache.put_rate(_key(), 0.5)
        assert not [name for name in os.listdir(tmp_path) if ".tmp." in name]

    def test_rejects_empty_dir(self):
        with pytest.raises(InvalidParameterError):
            AcceptanceCache("")

    def test_creates_missing_directory(self, tmp_path):
        nested = tmp_path / "a" / "b"
        AcceptanceCache(str(nested))
        assert nested.is_dir()
