"""The comparison-graph layer: structure, statistics, calibration, testers.

Three pillars:

* **construction** — canonical edge storage, family builders, size
  snapping, content hashing;
* **differential pins** — the layer must *recover* the pre-refactor
  testers exactly: the complete graph in edge mode is the centralized
  collision tester (analytic threshold, bit-identical verdicts), in
  distinct mode the unique-elements tester (whose legacy Monte-Carlo
  calibration is re-derived inline here as an independent oracle);
* **kernel contracts** — native cache tokens that cannot collide across
  graphs sharing (n, q), kernel_version bumps for every rewired tester,
  and bit-identical agreement with the per-edge reference oracles.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.random import default_rng

import repro
from repro.core.baselines import UniqueElementsTester
from repro.core.graphs import (
    GRAPH_FAMILIES,
    ComparisonGraph,
    ComparisonGraphTester,
    GraphStatisticPlayer,
    bipartite_graph,
    build_family_graph,
    complete_graph,
    cycle_graph,
    exact_no_collision_probability,
    far_statistic_mean_bound,
    graph_statistic_block,
    graph_tester_factory,
    matching_graph,
    random_regular_graph,
    snap_family_size,
    star_graph,
    uniform_statistic_moments,
    worst_case_statistic_proxy,
)
from repro.core.players import collision_counts, unique_counts
from repro.core.testers import CentralizedCollisionTester
from repro.distributions.discrete import uniform
from repro.exceptions import InvalidParameterError
from tests import oracles

N, EPS = 64, 0.4
UNIFORM = uniform(N)
FAR = repro.two_level_distribution(N, EPS)

#: One representative per structured family plus an explicit edge list —
#: the sweep axis for statistic/oracle differentials.
GRAPHS = {
    "complete": complete_graph(8),
    "star": star_graph(9),
    "matching": matching_graph(10),
    "cycle": cycle_graph(9),
    "bipartite": bipartite_graph(9),
    "regular3": random_regular_graph(10, 3),
    "explicit": ComparisonGraph(6, [(0, 3), (1, 3), (2, 5), (0, 1)]),
}


class TestConstruction:
    def test_edges_canonicalised_and_sorted_by_later_endpoint(self):
        graph = ComparisonGraph(5, [(4, 2), (1, 0), (3, 4), (2, 0)])
        assert graph.edge_u.tolist() == [0, 0, 2, 3]
        assert graph.edge_v.tolist() == [1, 2, 4, 4]
        assert graph.edge_u.dtype == np.int64
        assert graph.edge_v.dtype == np.int64

    @pytest.mark.parametrize(
        "bad",
        [
            [(0, 0)],  # self loop
            [(0, 1), (1, 0)],  # duplicate after canonicalisation
            [(0, 5)],  # endpoint out of range
            [],  # no edges
        ],
    )
    def test_rejects_malformed_edge_lists(self, bad):
        with pytest.raises(InvalidParameterError):
            ComparisonGraph(5, bad)

    def test_complete_label_requires_every_edge(self):
        with pytest.raises(InvalidParameterError):
            ComparisonGraph(4, [(0, 1)], family="complete")
        u, v = np.triu_indices(4, k=1)
        explicit = ComparisonGraph(4, np.column_stack((u, v)), family="complete")
        assert graph_statistic_block(explicit, np.array([[1, 1, 2, 2]])).tolist() == [2]
        assert explicit.cache_token == complete_graph(4).cache_token

    def test_only_the_complete_graph_is_implicit(self):
        with pytest.raises(InvalidParameterError):
            ComparisonGraph(4, family="star")
        assert ComparisonGraph(4).family == "complete"
        assert ComparisonGraph(4, [(0, 1)]).family == "explicit"

    @pytest.mark.parametrize("q", range(2, 65))
    def test_implicit_complete_graph_matches_explicit_edges(self, q):
        implicit = complete_graph(q)
        assert implicit.num_edges == q * (q - 1) // 2
        u, v = np.triu_indices(q, k=1)
        explicit = ComparisonGraph(q, np.column_stack((u, v)))
        for name in ("edge_u", "edge_v", "degrees"):
            got, want = getattr(implicit, name), getattr(explicit, name)
            assert got.dtype == want.dtype == np.int64
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, want)
        assert implicit.num_edges == explicit.num_edges
        assert implicit.num_cherries == explicit.num_cherries
        assert implicit.content_hash() == explicit.content_hash()

    def test_complete_graph_token_names_the_size_only(self):
        assert complete_graph(7).cache_token == {"family": "complete", "num_vertices": 7}
        assert "edges" in star_graph(7).cache_token

    def test_threshold_rule_tester_never_materialises_k_q(self, monkeypatch):
        def refuse(graph):
            raise AssertionError(f"materialised the edges of {graph!r}")

        monkeypatch.setattr(ComparisonGraph, "_materialise", refuse)
        tester = repro.ThresholdRuleTester(
            1024, 0.5, k=16, q=4096, calibration_trials=200
        )
        assert tester.protocol.players[0].strategy.graph.num_edges == 4096 * 4095 // 2
        assert tester.cache_token["kind"] == "protocol"

    def test_family_edge_counts(self):
        assert complete_graph(8).num_edges == 28
        assert star_graph(9).num_edges == 8
        assert matching_graph(10).num_edges == 5
        assert cycle_graph(9).num_edges == 9
        assert bipartite_graph(9).num_edges == 5 * 4
        regular = random_regular_graph(10, 3)
        assert regular.num_edges == 15
        assert np.all(regular.degrees == 3)

    def test_matching_rejects_odd_and_cycle_rejects_tiny(self):
        with pytest.raises(InvalidParameterError):
            matching_graph(7)
        with pytest.raises(InvalidParameterError):
            cycle_graph(2)
        with pytest.raises(InvalidParameterError):
            random_regular_graph(3, 3)

    def test_cherry_counts(self):
        # K_q: every vertex has degree q-1 → q·C(q-1, 2) cherries.
        assert complete_graph(6).num_cherries == 6 * 10
        # A matching has no adjacent edge pairs at all.
        assert matching_graph(10).num_cherries == 0
        # The star concentrates them all at the hub: C(q-1, 2).
        assert star_graph(9).num_cherries == 28
        # The cycle has exactly one cherry per vertex.
        assert cycle_graph(9).num_cherries == 9

    def test_random_regular_graph_is_deterministic(self):
        a = random_regular_graph(12, 3, seed=5)
        b = random_regular_graph(12, 3, seed=5)
        c = random_regular_graph(12, 3, seed=6)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_content_hash_tracks_structure_not_family_label(self):
        explicit = ComparisonGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert explicit.content_hash() == star_graph(4).content_hash()
        assert explicit.content_hash() != cycle_graph(4).content_hash()

    def test_snap_family_size(self):
        assert snap_family_size("matching", 7) == 8
        assert snap_family_size("cycle", 2) == 3
        assert snap_family_size("regular3", 2) == 4
        assert snap_family_size("regular3", 5) == 6  # parity: 5·3 is odd
        assert snap_family_size("complete", 7) == 7
        with pytest.raises(InvalidParameterError):
            snap_family_size("petersen", 10)

    def test_build_family_graph_covers_registry(self):
        for family in GRAPH_FAMILIES:
            graph = build_family_graph(family, 9)
            assert graph.num_vertices == snap_family_size(family, 9)
            assert graph.family == family


class TestStatisticBlock:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("mode", ["edges", "distinct"])
    def test_matches_per_edge_oracle(self, name, mode):
        graph = GRAPHS[name]
        samples = uniform(6).sample_matrix(50, graph.num_vertices, default_rng(3))
        fast = graph_statistic_block(graph, samples, mode)
        slow = oracles.graph_statistic_reference(graph, samples, mode)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, slow)

    def test_complete_fast_path_equals_explicit_edge_path(self):
        q = 7
        fast = complete_graph(q)
        u, v = np.triu_indices(q, k=1)
        explicit = ComparisonGraph(q, np.column_stack((u, v)))
        samples = UNIFORM.sample_matrix(200, q, default_rng(1))
        for mode in ("edges", "distinct"):
            assert np.array_equal(
                graph_statistic_block(fast, samples, mode),
                graph_statistic_block(explicit, samples, mode),
            )

    def test_complete_graph_recovers_player_counts(self):
        samples = UNIFORM.sample_matrix(100, 8, default_rng(2))
        graph = complete_graph(8)
        assert np.array_equal(
            graph_statistic_block(graph, samples), collision_counts(samples)
        )
        assert np.array_equal(
            graph_statistic_block(graph, samples, "distinct"),
            unique_counts(samples),
        )

    def test_rejects_mismatched_width_and_unknown_mode(self):
        graph = cycle_graph(5)
        with pytest.raises(InvalidParameterError):
            graph_statistic_block(graph, UNIFORM.sample_matrix(4, 6, 0))
        with pytest.raises(InvalidParameterError):
            graph_statistic_block(
                graph, UNIFORM.sample_matrix(4, 5, 0), mode="triangles"
            )


class TestMoments:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_uniform_moments_match_monte_carlo(self, name):
        graph = GRAPHS[name]
        mean, variance = uniform_statistic_moments(graph, N)
        stats = graph_statistic_block(
            graph, UNIFORM.sample_matrix(20_000, graph.num_vertices, default_rng(7))
        )
        tolerance = 5.0 * np.sqrt(variance / 20_000)
        assert abs(float(stats.mean()) - mean) < tolerance
        assert float(stats.var()) == pytest.approx(variance, rel=0.25)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_far_mean_bound_attained_by_two_level_proxy(self, name):
        graph = GRAPHS[name]
        bound = far_statistic_mean_bound(graph, N, EPS)
        proxy = worst_case_statistic_proxy(graph, N, EPS)
        stats = graph_statistic_block(
            graph, proxy.sample_matrix(20_000, graph.num_vertices, default_rng(8))
        )
        _, variance = uniform_statistic_moments(graph, N)
        slack = 6.0 * np.sqrt((1 + EPS) * variance / 20_000)
        assert float(stats.mean()) >= bound - slack

    @pytest.mark.parametrize(
        "name", ["complete", "matching", "star", "cycle"]
    )
    def test_exact_no_collision_probability_closed_forms(self, name):
        graph = GRAPHS[name]
        exact = exact_no_collision_probability(graph, 16)
        stats = graph_statistic_block(
            graph, uniform(16).sample_matrix(30_000, graph.num_vertices, default_rng(9))
        )
        assert exact == pytest.approx(float((stats == 0).mean()), abs=0.02)

    def test_no_closed_form_returns_none(self):
        assert exact_no_collision_probability(GRAPHS["bipartite"], 16) is None
        assert exact_no_collision_probability(GRAPHS["regular3"], 16) is None
        assert exact_no_collision_probability(GRAPHS["explicit"], 16) is None


class TestLegacyEquivalence:
    """The refactor's contract: old testers are specific graphs, exactly."""

    def test_collision_tester_threshold_is_legacy_formula(self):
        tester = CentralizedCollisionTester(N, EPS)
        pairs = tester.q * (tester.q - 1) / 2.0
        assert tester.statistic_threshold == pairs * (1.0 + EPS**2 / 2.0) / N

    @pytest.mark.parametrize("seed", [0, 42])
    def test_collision_tester_accept_block_is_legacy_kernel(self, seed):
        """Inline transcription of the pre-refactor kernel: one sample
        matrix, collision_counts, the analytic cut."""
        tester = CentralizedCollisionTester(N, EPS)
        for dist in (UNIFORM, FAR):
            verdicts = tester.accept_block(dist, 300, default_rng(seed))
            samples = dist.sample_matrix(300, tester.q, default_rng(seed))
            legacy = collision_counts(samples) <= tester.statistic_threshold
            assert np.array_equal(verdicts, legacy)

    def test_unique_elements_calibration_is_legacy_monte_carlo(self):
        """Inline transcription of the pre-refactor UniqueElementsTester
        calibration: uniform then far distinct-count means on one shared
        generator, cut at the midpoint — must match bit-for-bit."""
        tester = UniqueElementsTester(N, EPS, q=12)
        generator = default_rng(0)
        uniform_mean = unique_counts(
            UNIFORM.sample_matrix(3000, 12, generator)
        ).mean()
        far_mean = unique_counts(
            worst_case_statistic_proxy(complete_graph(12), N, EPS).sample_matrix(
                3000, 12, generator
            )
        ).mean()
        assert tester.distinct_threshold == 0.5 * (
            float(uniform_mean) + float(far_mean)
        )

    @pytest.mark.parametrize("seed", [0, 42])
    def test_unique_elements_accept_block_is_legacy_kernel(self, seed):
        tester = UniqueElementsTester(N, EPS, q=12)
        for dist in (UNIFORM, FAR):
            verdicts = tester.accept_block(dist, 300, default_rng(seed))
            samples = dist.sample_matrix(300, 12, default_rng(seed))
            legacy = unique_counts(samples) >= tester.distinct_threshold
            assert np.array_equal(verdicts, legacy)

    def test_graph_tester_equals_subclass_wiring(self):
        """A bare ComparisonGraphTester on K_q must agree verdict-for-
        verdict with both rebuilt subclasses."""
        collision = CentralizedCollisionTester(N, EPS, q=10)
        bare = ComparisonGraphTester(N, EPS, complete_graph(10))
        distinct = UniqueElementsTester(N, EPS, q=10)
        bare_distinct = ComparisonGraphTester(
            N, EPS, complete_graph(10), mode="distinct"
        )
        assert bare.statistic_threshold == collision.statistic_threshold
        assert bare_distinct.statistic_threshold == distinct.statistic_threshold
        for dist in (UNIFORM, FAR):
            assert np.array_equal(
                collision.accept_block(dist, 200, default_rng(5)),
                bare.accept_block(dist, 200, default_rng(5)),
            )
            assert np.array_equal(
                distinct.accept_block(dist, 200, default_rng(5)),
                bare_distinct.accept_block(dist, 200, default_rng(5)),
            )

    def test_worst_case_proxy_is_graph_independent(self):
        pair = worst_case_statistic_proxy(complete_graph(2), N, EPS)
        cycle = worst_case_statistic_proxy(cycle_graph(5), N, EPS)
        assert np.array_equal(pair.pmf, cycle.pmf)

    @pytest.mark.parametrize("seed", [0, 42])
    def test_graph_player_on_complete_graph_is_collision_bit(self, seed):
        samples = UNIFORM.sample_matrix(200, 8, default_rng(seed))
        graph_player = GraphStatisticPlayer(complete_graph(8), 2.0)
        assert np.array_equal(
            graph_player.respond_batch(samples),
            (collision_counts(samples) <= 2.0).astype(np.int64),
        )


class TestTesterKernelContracts:
    def test_kernel_versions_bumped_for_rewired_testers(self):
        assert ComparisonGraphTester.kernel_version == 1
        assert CentralizedCollisionTester.kernel_version == 2
        assert UniqueElementsTester.kernel_version == 2

    def test_cache_tokens_cannot_collide_across_graphs(self):
        """Same (n, q) but different structure/mode/class → distinct keys."""
        testers = [
            ComparisonGraphTester(N, EPS, complete_graph(9)),
            ComparisonGraphTester(N, EPS, complete_graph(9), mode="distinct"),
            ComparisonGraphTester(N, EPS, cycle_graph(9)),
            ComparisonGraphTester(N, EPS, star_graph(9)),
            ComparisonGraphTester(N, EPS, bipartite_graph(9)),
            CentralizedCollisionTester(N, EPS, q=9),
            UniqueElementsTester(N, EPS, q=9),
        ]
        tokens = [repr(sorted(t.cache_token.items())) for t in testers]
        assert len(set(tokens)) == len(tokens)

    def test_threshold_enters_cache_token(self):
        a = ComparisonGraphTester(N, EPS, cycle_graph(9))
        b = ComparisonGraphTester(N, EPS, cycle_graph(9), threshold=99.0)
        assert a.cache_token != b.cache_token

    def test_resources_and_elements_per_trial(self):
        dense = ComparisonGraphTester(N, EPS, complete_graph(9))
        assert dense.resources.num_players == 1
        assert dense.resources.samples_per_player == 9
        assert dense.elements_per_trial == 18
        sparse = ComparisonGraphTester(N, EPS, cycle_graph(9))
        assert sparse.elements_per_trial == 9 + 9

    def test_rejects_non_graph_and_bad_mode(self):
        with pytest.raises(InvalidParameterError):
            ComparisonGraphTester(N, EPS, "K_9")
        with pytest.raises(InvalidParameterError):
            ComparisonGraphTester(N, EPS, cycle_graph(9), mode="triangles")

    @pytest.mark.parametrize("name", ["matching", "cycle", "bipartite"])
    @pytest.mark.parametrize("mode", ["edges", "distinct"])
    def test_accept_block_matches_reference_oracle(self, name, mode):
        tester = ComparisonGraphTester(N, EPS, GRAPHS[name], mode=mode)
        for dist in (UNIFORM, FAR):
            vectorized = tester.accept_block(dist, 200, default_rng(6))
            reference = oracles.comparison_graph_reference_accept_block(
                tester, dist, 200, default_rng(6)
            )
            assert np.array_equal(vectorized, reference)

    def test_separates_uniform_from_far(self):
        """End to end: a dense graph tester is a working uniformity
        tester at moderate q."""
        tester = ComparisonGraphTester(256, 0.6, bipartite_graph(64))
        accept_uniform = tester.accept_block(
            uniform(256), 400, default_rng(10)
        ).mean()
        accept_far = tester.accept_block(
            repro.two_level_distribution(256, 0.6), 400, default_rng(10)
        ).mean()
        assert accept_uniform > accept_far + 0.2


class TestFactory:
    def test_factory_snaps_probed_levels(self):
        factory = graph_tester_factory("matching", N, EPS)
        assert factory(7).q == 8
        assert factory(8).graph.family == "matching"
        with pytest.raises(InvalidParameterError):
            graph_tester_factory("petersen", N, EPS)

    def test_factory_modes(self):
        tester = graph_tester_factory("complete", N, EPS, mode="distinct")(6)
        assert tester.mode == "distinct"
        assert isinstance(tester, ComparisonGraphTester)
