"""Unit tests for the experiment modules' internal helpers.

The experiment `run()` entry points are exercised by the benchmark suite;
these tests pin the small pure helpers they are built from.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.distributions import distance_to_uniform, l1_distance
from repro.experiments.e09_asymmetric import rate_profiles
from repro.experiments.e11_kkl import function_zoo
from repro.experiments.e13_identity import _far_from, _targets
from repro.experiments.e15_hard_family import alternatives
from repro.experiments.e17_network import topologies
from repro.rng import ensure_rng


class TestE09RateProfiles:
    def test_expected_profiles_present(self):
        profiles = rate_profiles(16)
        assert set(profiles) == {
            "uniform",
            "uniform_x2",
            "ramp",
            "one_fast",
            "half_idle",
        }

    def test_shapes_and_signs(self):
        for label, rates in rate_profiles(12).items():
            assert rates.shape == (12,), label
            assert (rates >= 0).all(), label

    def test_doubling_relationship(self):
        profiles = rate_profiles(8)
        assert np.allclose(profiles["uniform_x2"], 2.0 * profiles["uniform"])


class TestE11FunctionZoo:
    def test_zoo_membership_and_booleanity(self, rng):
        names = []
        for label, func in function_zoo(6, rng):
            names.append(label)
            values = np.unique(func.table)
            assert np.all(np.isin(values, (0.0, 1.0))), label
        assert "and_all" in names
        assert "tribes_2" in names
        assert any(name.startswith("random_") for name in names)

    def test_and_function_mean(self, rng):
        for label, func in function_zoo(6, rng):
            if label == "and_all":
                assert func.table.mean() == pytest.approx(2.0**-6)


class TestE13Helpers:
    def test_targets_cover_shapes(self, rng):
        targets = _targets(16, rng)
        assert set(targets) == {"uniform", "zipf_0.7", "bimodal", "dirichlet"}
        for target in targets.values():
            assert target.n == 16

    def test_far_from_really_far(self, rng):
        generator = ensure_rng(0)
        target = repro.zipf_distribution(32, 0.7)
        far = _far_from(target, 0.5, generator)
        assert l1_distance(far, target) >= 0.5
        assert far.pmf.sum() == pytest.approx(1.0)


class TestE15Alternatives:
    def test_all_alternatives_are_epsilon_far(self, rng):
        for label, alternative in alternatives(64, 0.5, rng).items():
            assert distance_to_uniform(alternative) >= 0.5 - 1e-9, label

    def test_hard_family_minimises_l2(self, rng):
        members = alternatives(64, 0.5, rng)
        hard = members["paninski"].l2_norm_squared()
        for label, alternative in members.items():
            assert alternative.l2_norm_squared() >= hard - 1e-12, label


class TestE17Topologies:
    def test_all_connected_and_sized(self, rng):
        import networkx as nx

        for label, graph in topologies(16, rng).items():
            assert nx.is_connected(graph), label
            assert graph.number_of_nodes() == 16, label

    def test_line_has_max_diameter(self, rng):
        import networkx as nx

        graphs = topologies(16, rng)
        diameters = {label: nx.diameter(g) for label, g in graphs.items()}
        assert diameters["line"] == max(diameters.values())
        assert diameters["star"] == min(diameters.values())
