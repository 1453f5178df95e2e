"""Tests for the synchronous simulator, BFS, and aggregation."""

from __future__ import annotations

from typing import Dict, Mapping

import networkx as nx
import pytest

from repro.exceptions import InvalidParameterError, ProtocolError
from repro.network import (
    NetworkSimulator,
    NodeProgram,
    broadcast_value,
    build_bfs_tree,
    convergecast_sum,
    grid_topology,
    line_topology,
    random_tree_topology,
    star_topology,
)
from repro.network.spanning_tree import children_of, tree_depth


class EchoOnce(NodeProgram):
    """Sends its id to all neighbours in round 0, then halts."""

    def on_round(self, round_index: int, inbox: Mapping[int, int]) -> Dict[int, int]:
        if round_index == 0:
            return_value = {neighbor: self.node_id for neighbor in self.neighbors}
        else:
            return_value = {}
        if round_index >= 1:
            self.halted = True
        return return_value


class Misbehaver(NodeProgram):
    def on_round(self, round_index, inbox):
        return {999: 1}  # not a neighbour


class NeverHalts(NodeProgram):
    def on_round(self, round_index, inbox):
        return {}


class TestSimulator:
    def test_message_accounting(self):
        graph = line_topology(3)
        simulator = NetworkSimulator(graph, [EchoOnce() for _ in range(3)])
        stats = simulator.run()
        # node 0 and 2 send 1 message each, node 1 sends 2.
        assert stats.messages == 4
        assert stats.rounds >= 1

    def test_rejects_wrong_program_count(self):
        with pytest.raises(InvalidParameterError):
            NetworkSimulator(line_topology(3), [EchoOnce()])

    def test_rejects_non_neighbor_message(self):
        graph = line_topology(2)
        simulator = NetworkSimulator(graph, [Misbehaver(), Misbehaver()])
        with pytest.raises(ProtocolError):
            simulator.run()

    def test_timeout_raises(self):
        graph = line_topology(2)
        simulator = NetworkSimulator(graph, [NeverHalts(), NeverHalts()])
        with pytest.raises(ProtocolError):
            simulator.run(max_rounds=5)


class TestBfs:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: line_topology(7),
            lambda: nx.cycle_graph(8),
            lambda: star_topology(9),
            lambda: grid_topology(3, 5),
            lambda: random_tree_topology(12, 3),
        ],
    )
    def test_levels_match_shortest_paths(self, factory):
        graph = factory()
        parents, levels, _ = build_bfs_tree(graph, root=0)
        shortest = nx.single_source_shortest_path_length(graph, 0)
        for node in graph.nodes:
            assert levels[node] == shortest[node]

    def test_parents_form_tree_edges(self):
        graph = grid_topology(4, 4)
        parents, levels, _ = build_bfs_tree(graph, 0)
        assert parents[0] == -1
        for node, parent in enumerate(parents):
            if parent >= 0:
                assert graph.has_edge(node, parent)
                assert levels[node] == levels[parent] + 1

    def test_custom_root(self):
        graph = line_topology(5)
        parents, levels, _ = build_bfs_tree(graph, root=2)
        assert parents[2] == -1
        assert levels == [2, 1, 0, 1, 2]

    def test_children_inversion(self):
        parents = [-1, 0, 0, 1]
        assert children_of(parents) == [[1, 2], [3], [], []]

    def test_invalid_root(self):
        with pytest.raises(InvalidParameterError):
            build_bfs_tree(line_topology(3), root=5)


class TestAggregation:
    def test_convergecast_sum_correct(self, rng):
        graph = random_tree_topology(15, rng)
        parents, levels, _ = build_bfs_tree(graph, 0)
        values = list(rng.integers(0, 10, size=15))
        total, stats = convergecast_sum(graph, parents, [int(v) for v in values], levels)
        assert total == sum(values)
        assert stats.rounds <= tree_depth(levels) + 3

    def test_convergecast_single_node(self):
        graph = line_topology(1)
        total, _ = convergecast_sum(graph, [-1], [5], [0])
        assert total == 5

    def test_convergecast_rejects_negative(self):
        graph = line_topology(2)
        parents, levels, _ = build_bfs_tree(graph, 0)
        with pytest.raises(InvalidParameterError):
            convergecast_sum(graph, parents, [1, -2], levels)

    def test_broadcast_reaches_everyone(self):
        graph = grid_topology(3, 3)
        parents, levels, _ = build_bfs_tree(graph, 0)
        values, stats = broadcast_value(graph, parents, 42, levels)
        assert values == [42] * 9
        assert stats.rounds <= tree_depth(levels) + 3

    def test_message_width_is_logarithmic(self, rng):
        """Convergecast of k alarm bits needs <= ceil(log2(k+1))-bit words."""
        k = 31
        graph = star_topology(k)
        parents, levels, _ = build_bfs_tree(graph, 0)
        total, stats = convergecast_sum(graph, parents, [1] * k, levels)
        assert total == k
        assert stats.max_message_bits <= 5  # partial sums below the root are 1
