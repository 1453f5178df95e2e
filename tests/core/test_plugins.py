"""Plugin registry + battery runner: discovery, uniqueness, shared stream."""

from __future__ import annotations

import pytest

from repro.core.battery import BatteryRow, render_battery, run_battery
from repro.core.plugins import (
    SKETCH_BUCKETS,
    StreamingPlugin,
    get_plugin,
    plugin_names,
    register_plugin,
    registered_plugins,
)
from repro.core.streaming import (
    StreamingCollisionTester,
    StreamingDistinctTester,
    StreamingGraphTester,
    StreamingTester,
)
from repro.distributions.generators import two_level_distribution
from repro.exceptions import InvalidParameterError

N, EPS = 64, 0.5


class TestRegistry:
    def test_builtin_plugins_present(self):
        names = plugin_names()
        for expected in (
            "collision-exact",
            "collision-sketch64",
            "distinct-exact",
            "distinct-sketch64",
            "graph-cycle",
            "graph-matching",
            "graph-bipartite-distinct",
        ):
            assert expected in names

    def test_names_sorted_and_unique(self):
        names = plugin_names()
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_get_plugin_and_unknown(self):
        plugin = get_plugin("collision-exact")
        assert isinstance(plugin, StreamingPlugin)
        assert plugin.exact
        with pytest.raises(InvalidParameterError):
            get_plugin("no-such-plugin")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(InvalidParameterError):
            register_plugin("collision-exact", "shadow")(
                lambda n, eps: StreamingCollisionTester(n, eps)
            )

    def test_sketched_plugins_flagged_inexact(self):
        assert not get_plugin("collision-sketch64").exact
        assert not get_plugin("distinct-sketch64").exact

    def test_factories_build_testers_with_sketch_buckets(self):
        sketched = get_plugin("collision-sketch64").factory(N, EPS)
        assert sketched.num_buckets == SKETCH_BUCKETS
        exact = get_plugin("collision-exact").factory(N, EPS)
        assert exact.num_buckets is None


class TestDiscoveryMetaTest:
    """No concrete StreamingTester subclass may exist unregistered."""

    def test_every_concrete_subclass_reachable_from_a_plugin(self):
        instantiated = set()
        for plugin in registered_plugins().values():
            instantiated.add(type(plugin.factory(N, EPS)))
        concrete = {
            cls
            for cls in StreamingTester.__subclasses__()
            if not getattr(cls, "__abstractmethods__", None)
        }
        assert concrete, "no concrete streaming testers found"
        missing = {cls.__name__ for cls in concrete - instantiated}
        assert not missing, (
            f"streaming tester classes with no registered plugin: {missing}"
        )
        assert {
            StreamingCollisionTester,
            StreamingDistinctTester,
            StreamingGraphTester,
        } <= instantiated


class TestBattery:
    def test_shared_stream_all_plugins_healthy(self):
        rows = run_battery(N, EPS, trials=150, rng=3)
        assert sorted(row.name for row in rows) == plugin_names()
        for row in rows:
            assert isinstance(row, BatteryRow)
            assert row.trials == 150
            assert row.within_bound, row.name
            assert row.matches_batch_oracle, row.name
            assert 0.0 <= row.accept_rate <= 1.0
            assert row.state_bytes_peak <= row.state_bytes_declared

    def test_far_input_mostly_rejected_by_exact_plugins(self):
        far = two_level_distribution(N, EPS)
        rows = run_battery(
            N, EPS, trials=200, rng=0, distribution=far, only=["collision-exact"]
        )
        assert len(rows) == 1
        assert rows[0].accept_rate < 0.5

    def test_only_filter_and_unknown_name(self):
        rows = run_battery(N, EPS, trials=150, only=["distinct-exact"])
        assert [row.name for row in rows] == ["distinct-exact"]
        with pytest.raises(InvalidParameterError):
            run_battery(N, EPS, trials=150, only=["nope"])

    def test_chunk_width_does_not_change_verdict_rates(self):
        first = run_battery(N, EPS, trials=120, chunk=1)
        wide = run_battery(N, EPS, trials=120, chunk=64)
        assert [row.accept_rate for row in first] == [
            row.accept_rate for row in wide
        ]

    def test_render_battery_table(self):
        rows = run_battery(N, EPS, trials=150, only=["collision-exact"])
        text = render_battery(rows)
        assert "collision-exact" in text
        assert "plugin" in text.splitlines()[0]
        assert "ok" in text
