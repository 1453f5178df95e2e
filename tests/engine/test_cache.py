"""Tests for the on-disk acceptance-curve cache."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.graphs import GRAPH_FAMILIES, random_regular_graph
from repro.core.streaming import (
    StreamingCollisionTester,
    StreamingDistinctTester,
    StreamingGraphTester,
)
from repro.engine import AcceptanceCache, distribution_fingerprint
from repro.engine import tester_fingerprint as fingerprint_tester
from repro.engine.cache import (
    CACHE_VERSION,
    _canonical,
    atomic_write_text,
    cached_calibration,
    kernel_probe_key,
    seed_fingerprint,
)
from repro.exceptions import InvalidParameterError

N, EPS = 64, 0.5


def _key(trials=100, tester=None, dist=None):
    tester = tester or repro.ThresholdRuleTester(N, EPS, k=8, q=12)
    dist = dist or repro.uniform(N)
    return kernel_probe_key(tester, dist, {"trials": trials}, 42)


def _estimate(rate):
    return {"rate": rate, "trials_used": 100}


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
        assert fp["protocol"]["players"] == {
            "homogeneous": 8,
            "strategy": "GraphStatisticPlayer(complete, q=12, m=66, mode=edges, t=1.16015625)",
            "q": 12,
        }

    def test_raw_protocol_fingerprint(self):
        protocol = repro.SimultaneousProtocol.homogeneous(
            repro.GraphStatisticPlayer(repro.complete_graph(6), 0),
            num_players=4,
            num_samples=6,
            referee=repro.ThresholdRule(2, num_players=4),
        )
        fp = fingerprint_tester(protocol)
        assert fp["class"] == "SimultaneousProtocol"
        assert fp["players"] == {
            "homogeneous": 4,
            "strategy": "GraphStatisticPlayer(complete, q=6, m=15, mode=edges, t=0.0)",
            "q": 6,
        }

    def test_heterogeneous_protocol_lists_every_player(self):
        players = [
            repro.Player(repro.GraphStatisticPlayer(repro.complete_graph(q), 0), q)
            for q in (4, 6, 6)
        ]
        protocol = repro.SimultaneousProtocol(
            players, repro.ThresholdRule(2, num_players=3)
        )
        fp = fingerprint_tester(protocol)
        assert [player["q"] for player in fp["players"]] == [4, 6, 6]
        assert fp["players"][0]["strategy"].startswith("GraphStatisticPlayer(complete, q=4")

    def test_kernel_key_length_is_independent_of_k(self):
        # k appears three times (tester, player entry, referee) and so does
        # the referee threshold T ∝ k; nothing else in the key grows with k.
        def length_without_k_digits(k):
            tester = repro.ThresholdRuleTester(1024, EPS, k=k, q=48)
            key = kernel_probe_key(
                tester, repro.uniform(1024), {"trials": 100}, 0
            )
            digits = len(str(k)) + len(str(tester.reject_threshold))
            return len(_canonical(key)) - 3 * digits

        assert length_without_k_digits(256) == length_without_k_digits(4)

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
        assert cache.get_estimate(key) is None
        cache.put_estimate(key, _estimate(0.625))
        assert cache.get_estimate(key) == _estimate(0.625)
        assert len(cache) == 1

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        cache.put_estimate(_key(trials=100), _estimate(0.1))
        cache.put_estimate(_key(trials=200), _estimate(0.9))
        assert cache.get_estimate(_key(trials=100)) == _estimate(0.1)
        assert cache.get_estimate(_key(trials=200)) == _estimate(0.9)
        assert len(cache) == 2

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        path = cache.put_estimate(key, _estimate(0.5))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.get_estimate(key) is None

    def test_undecodable_entry_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        path = cache.put_estimate(key, _estimate(0.5))
        with open(path, "wb") as handle:
            handle.write(b"\xff\xfe\x00")
        assert cache.get_estimate(key) is None

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        path = cache.put_estimate(key, _estimate(0.5))
        with open(path, "rb") as handle:
            stored = handle.read()
        with open(path, "wb") as handle:
            handle.write(stored[: len(stored) // 2])
        assert cache.get_estimate(key) is None
        cache.put_estimate(key, _estimate(0.5))
        assert cache.get_estimate(key) == _estimate(0.5)

    def test_stale_version_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        path = cache.put_estimate(key, _estimate(0.5))
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["key"]["version"] = CACHE_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert cache.get_estimate(key) is None

    def test_bare_rate_entry_reads_as_miss(self, tmp_path):
        # An entry without an estimate payload (e.g. a bare {"rate": ...}).
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        path = cache.put_estimate(key, _estimate(0.5))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"key": key, "rate": 0.5}, handle)
        assert cache.get_estimate(key) is None

    def test_non_dict_stored_key_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        path = cache.put_estimate(key, _estimate(0.5))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"key": [1, 2], "estimate": _estimate(0.5)}, handle)
        assert cache.get_estimate(key) is None
        cache.put_estimate(key, _estimate(0.25))
        assert cache.get_estimate(key) == _estimate(0.25)

    def test_entry_stored_under_another_key_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        wanted, other = _key(trials=100), _key(trials=200)
        path = cache.put_estimate(wanted, _estimate(0.1))
        shutil.copy(cache.put_estimate(other, _estimate(0.9)), path)
        assert cache.get_estimate(wanted) is None
        assert cache.get_estimate(other) == _estimate(0.9)
        cache.put_estimate(wanted, _estimate(0.1))
        assert cache.get_estimate(wanted) == _estimate(0.1)

    def test_tuple_and_list_keys_compare_equal(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        cache.put_estimate({**key, "spawn": (1, 2)}, _estimate(0.5))
        assert cache.get_estimate({**key, "spawn": [1, 2]}) == _estimate(0.5)

    def test_len_and_clear_count_calibration_entries(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        cache.put_estimate(_key(), _estimate(0.1))

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
        cache.put_estimate(_key(trials=100), _estimate(0.1))
        cache.put_estimate(_key(trials=200), _estimate(0.2))
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
        cache.put_estimate(_key(), _estimate(0.5))
        assert not [name for name in os.listdir(tmp_path) if ".tmp." in name]

    def test_unserialisable_payload_leaves_no_temp_file(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        with pytest.raises(TypeError):
            cache.put_estimate(_key(), {"rate": object()})
        assert os.listdir(tmp_path) == []
        assert len(cache) == 0

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = AcceptanceCache(str(tmp_path))

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            cache.put_estimate(_key(), _estimate(0.5))
        assert os.listdir(tmp_path) == []

    def test_rejects_empty_dir(self):
        with pytest.raises(InvalidParameterError):
            AcceptanceCache("")

    def test_creates_missing_directory(self, tmp_path):
        nested = tmp_path / "a" / "b"
        AcceptanceCache(str(nested))
        assert nested.is_dir()


class TestAtomicWriteText:
    """The one temp-file-and-rename writer behind cache entries and sweep
    checkpoints."""

    def test_writes_the_text_as_utf8(self, tmp_path):
        path = str(tmp_path / "entry.json")
        atomic_write_text(path, '{"eps": "\u03b5 = 0.5"}\n')
        with open(path, "rb") as handle:
            assert handle.read() == '{"eps": "\u03b5 = 0.5"}\n'.encode("utf-8")
        assert os.listdir(tmp_path) == ["entry.json"]

    def test_replaces_an_existing_file(self, tmp_path):
        path = str(tmp_path / "entry.json")
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "new"
        assert os.listdir(tmp_path) == ["entry.json"]

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = str(tmp_path / "entry.json")
        atomic_write_text(path, "old")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "\ud800")  # a lone surrogate has no UTF-8
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "old"
        assert os.listdir(tmp_path) == ["entry.json"]

    def test_interrupted_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        """Cleanup covers ``BaseException``: a Ctrl-C between the write and
        the rename leaves nothing behind either."""

        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(str(tmp_path / "entry.json"), "text")
        assert os.listdir(tmp_path) == []

    def test_temp_file_sits_beside_the_target_and_names_the_pid(
        self, tmp_path, monkeypatch
    ):
        """Same directory, so the rename never crosses a filesystem; the
        pid suffix keeps concurrent writers' temp files apart."""
        renames = []
        original = os.replace

        def recording(src, dst):
            renames.append((src, dst))
            original(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        path = str(tmp_path / "entry.json")
        atomic_write_text(path, "text")
        assert renames == [(f"{path}.tmp.{os.getpid()}", path)]


class TestProtocolLayoutKeys:
    """Homogeneous and heterogeneous protocols draw in different layouts
    (one ``trials·k × q`` matrix vs one matrix per player), so equal
    strategies must still key apart."""

    N, Q, K, T = 64, 8, 4, 2

    def _protocols(self):
        referee = repro.ThresholdRule(self.T, num_players=self.K)
        shared = repro.GraphStatisticPlayer(repro.complete_graph(self.Q), 0)
        homogeneous = repro.SimultaneousProtocol.homogeneous(
            shared, self.K, self.Q, referee
        )
        heterogeneous = repro.SimultaneousProtocol(
            [
                repro.Player(
                    repro.GraphStatisticPlayer(repro.complete_graph(self.Q), 0), self.Q
                )
                for _ in range(self.K)
            ],
            referee,
        )
        assert homogeneous.is_homogeneous and not heterogeneous.is_homogeneous
        return homogeneous, heterogeneous

    def test_layouts_key_apart(self):
        homogeneous, heterogeneous = self._protocols()
        assert fingerprint_tester(homogeneous) != fingerprint_tester(heterogeneous)

    def test_cache_serves_each_layout_its_own_rate(self, tmp_path):
        distribution = repro.uniform(self.N)
        uncached = [
            protocol.acceptance_probability(distribution, 2000, rng=5)
            for protocol in self._protocols()
        ]
        assert uncached[0] != uncached[1]
        with repro.engine.engine_context(cache=AcceptanceCache(str(tmp_path))):
            cached = [
                protocol.acceptance_probability(distribution, 2000, rng=5)
                for protocol in self._protocols()
            ]
        assert cached == uncached


class TestAmplifiedKeys:
    """Bases that differ only in their comparison graph share every
    primitive attribute (here the analytic cut 0.158203125); the
    amplified token must still key them apart."""

    @staticmethod
    def _amplified(seed):
        graph = random_regular_graph(24, 3, seed=seed)
        return repro.AmplifiedTester(
            repro.ComparisonGraphTester(256, 0.5, graph), repetitions=3
        )

    def test_graph_seed_enters_the_key(self):
        first, second = self._amplified(1), self._amplified(2)
        assert first.base.statistic_threshold == second.base.statistic_threshold
        keys = [
            kernel_probe_key(tester, None, {"trials": 100}, 0)
            for tester in (first, second)
        ]
        assert keys[0] != keys[1]

    def test_cached_rate_equals_uncached_rate(self, tmp_path):
        far = repro.two_level_distribution(256, 0.5)
        testers = [self._amplified(1), self._amplified(2)]
        uncached = [t.acceptance_probability(far, 400, rng=0) for t in testers]
        assert uncached[0] != uncached[1]
        with repro.engine.engine_context(cache=AcceptanceCache(str(tmp_path))):
            cached = [t.acceptance_probability(far, 400, rng=0) for t in testers]
        assert cached == uncached


def _probe_key(kernel):
    return _canonical(kernel_probe_key(kernel, None, {"trials": 100}, 0))


def _one_field_apart(fields):
    """Two parameter dicts that differ in exactly one field."""

    @st.composite
    def pairs(draw):
        base = {name: draw(strategy) for name, strategy in fields.items()}
        changed = draw(st.sampled_from(sorted(fields)))
        value = draw(fields[changed].filter(lambda v: v != base[changed]))
        return base, {**base, changed: value}

    return pairs()


#: Even sizes are valid for every registered graph family.
EVEN_Q = st.integers(2, 8).map(lambda half: 2 * half)

GRAPH_FIELDS = {
    "n": st.integers(8, 96),
    "epsilon": st.sampled_from([0.25, 0.5, 0.75]),
    "family": st.sampled_from(sorted(GRAPH_FAMILIES)),
    "q": EVEN_Q,
    "mode": st.sampled_from(["edges", "distinct"]),
}

THRESHOLD_RULE_FIELDS = {
    "n": st.integers(8, 96),
    "epsilon": st.sampled_from([0.25, 0.5, 0.75]),
    "k": st.integers(3, 12),
    "q": st.integers(2, 16),
    "forced_T": st.sampled_from([None, 1, 2, 3]),
}

STREAMING_FIELDS = {
    "kind": st.sampled_from(["collision", "distinct"]),
    "n": st.integers(8, 96),
    "epsilon": st.sampled_from([0.25, 0.5, 0.75]),
    "q": EVEN_Q,
    "num_buckets": st.sampled_from([None, 4, 16]),
}


def _graph_tester(p, cls=repro.ComparisonGraphTester):
    graph = GRAPH_FAMILIES[p["family"]](p["q"])
    return cls(p["n"], p["epsilon"], graph, mode=p["mode"], calibration_trials=200)


def _threshold_rule_tester(p):
    return repro.ThresholdRuleTester(
        p["n"],
        p["epsilon"],
        k=p["k"],
        q=p["q"],
        forced_T=p["forced_T"],
        calibration_trials=200,
    )


def _streaming_tester(p):
    n, epsilon, q, buckets = p["n"], p["epsilon"], p["q"], p["num_buckets"]
    if p["kind"] == "collision":
        return StreamingCollisionTester(n, epsilon, q=q, num_buckets=buckets)
    return StreamingDistinctTester(
        n, epsilon, q=q, num_buckets=buckets, calibration_trials=200
    )


class TestProbeKeyInjectivity:
    """Changing any one constructor parameter changes the probe key."""

    @settings(max_examples=40, deadline=None)
    @given(pair=_one_field_apart(GRAPH_FIELDS))
    def test_graph_testers(self, pair):
        first, second = (_graph_tester(p) for p in pair)
        assert _probe_key(first) != _probe_key(second)

    @settings(max_examples=25, deadline=None)
    @given(pair=_one_field_apart(THRESHOLD_RULE_FIELDS))
    def test_threshold_rule_testers(self, pair):
        first, second = (_threshold_rule_tester(p) for p in pair)
        assert _probe_key(first) != _probe_key(second)

    @settings(max_examples=40, deadline=None)
    @given(pair=_one_field_apart(STREAMING_FIELDS))
    def test_streaming_testers(self, pair):
        first, second = (_streaming_tester(p) for p in pair)
        assert _probe_key(first) != _probe_key(second)

    @settings(max_examples=40, deadline=None)
    @given(pair=_one_field_apart(GRAPH_FIELDS))
    def test_streaming_graph_testers(self, pair):
        first, second = (_graph_tester(p, StreamingGraphTester) for p in pair)
        assert _probe_key(first) != _probe_key(second)
