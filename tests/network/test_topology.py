"""Tests for network topologies."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.exceptions import InvalidParameterError
from repro.network.topology import (
    connected_gnp_topology,
    diameter,
    grid_topology,
    line_topology,
    random_tree_topology,
    star_topology,
    validate_topology,
)


class TestConstructors:
    def test_line(self):
        graph = line_topology(5)
        validate_topology(graph)
        assert diameter(graph) == 4

    def test_star(self):
        graph = star_topology(9)
        validate_topology(graph)
        assert diameter(graph) == 2
        assert graph.degree[0] == 8

    def test_grid(self):
        graph = grid_topology(3, 4)
        validate_topology(graph)
        assert graph.number_of_nodes() == 12
        assert diameter(graph) == 3 + 2  # (rows-1)+(cols-1)

    def test_random_tree_is_tree(self, rng):
        graph = random_tree_topology(20, rng)
        validate_topology(graph)
        assert nx.is_tree(graph)

    def test_gnp_connected(self, rng):
        graph = connected_gnp_topology(20, 0.05, rng)
        validate_topology(graph)
        assert nx.is_connected(graph)

    def test_gnp_extremes(self, rng):
        assert nx.is_tree(connected_gnp_topology(12, 0.0, rng))
        complete = connected_gnp_topology(12, 1.0, rng)
        assert complete.number_of_edges() == 12 * 11 // 2

    def test_single_node(self):
        graph = line_topology(1)
        validate_topology(graph)
        assert diameter(graph) == 0


class TestValidation:
    def test_rejects_disconnected(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        with pytest.raises(InvalidParameterError):
            validate_topology(graph)

    def test_rejects_bad_labels(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        with pytest.raises(InvalidParameterError):
            validate_topology(graph)

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            validate_topology(nx.Graph())


@pytest.mark.parametrize(
    "build",
    [
        lambda: line_topology(0),
        lambda: star_topology(1),
        lambda: grid_topology(0, 3),
        lambda: random_tree_topology(0),
        lambda: connected_gnp_topology(0, 0.5),
        lambda: connected_gnp_topology(4, 1.5),
    ],
    ids=["line-k", "star-k", "grid-rows", "tree-k", "gnp-k", "gnp-p"],
)
def test_constructors_reject_bad_parameters(build):
    with pytest.raises(InvalidParameterError):
        build()
