"""Distributed layered BFS spanning-tree construction.

The classic O(D)-round CONGEST primitive: the root announces level 0;
every node adopts the first (lowest-id) announcer as its parent and
announces its own level the next round.  Nodes know the network size k
(the standard assumption) and halt after k rounds, by which time every
node has joined the tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from ..exceptions import InvalidParameterError
from .simulator import NetworkSimulator, NodeProgram, RoundStats
from .topology import validate_topology

if TYPE_CHECKING:
    import networkx as nx


class BfsTreeProgram(NodeProgram):
    """Per-node BFS logic; output encodes the adopted parent.

    The result is ``parent + 1`` (so the root, with no parent, outputs 0
    and every payload stays a non-negative integer).
    """

    def __init__(self, root: int, network_size: int):
        super().__init__()
        if network_size < 1:
            raise InvalidParameterError("network_size must be >= 1")
        self.root = root
        self.network_size = network_size
        self.level: Optional[int] = None
        self.parent: Optional[int] = None
        self._announce = False

    def on_round(self, round_index: int, inbox: Mapping[int, int]) -> Dict[int, int]:
        outbox: Dict[int, int] = {}
        if round_index == 0 and self.node_id == self.root:
            self.level = 0
            self._announce = True
        if self.level is None and inbox:
            # Adopt the lowest-id announcing neighbour; payload = its level.
            parent = min(inbox)
            self.parent = parent
            self.level = inbox[parent] + 1
            self._announce = True
        elif self._announce:
            # Announcement already queued from the previous round's adoption.
            pass
        if self._announce and self.level is not None:
            for neighbor in self.neighbors:
                outbox[neighbor] = self.level
            self._announce = False
        if round_index + 1 >= self.network_size:
            self.halted = True
        return outbox

    def result(self) -> Optional[int]:
        if self.level is None:
            return None
        return 0 if self.parent is None else self.parent + 1


def build_bfs_tree(
    graph: nx.Graph, root: int = 0
) -> Tuple[List[int], List[int], RoundStats]:
    """Run distributed BFS; returns ``(parents, levels, stats)``.

    ``parents[root] == -1``; every other entry is the tree parent.  Levels
    are BFS distances from the root (they match networkx shortest paths,
    which the test suite asserts).
    """
    validate_topology(graph)
    k = graph.number_of_nodes()
    if not 0 <= root < k:
        raise InvalidParameterError(f"root {root} outside [0, {k})")
    programs = [BfsTreeProgram(root, k) for _ in range(k)]
    simulator = NetworkSimulator(graph, programs)
    stats = simulator.run(max_rounds=k + 2)
    parents: List[int] = []
    levels: List[int] = []
    for program in programs:
        if program.level is None:
            raise InvalidParameterError(
                "BFS failed to reach every node (disconnected topology?)"
            )
        parents.append(-1 if program.parent is None else program.parent)
        levels.append(program.level)
    return parents, levels, stats


def children_of(parents: List[int]) -> List[List[int]]:
    """Invert a parent vector into per-node children lists."""
    children: List[List[int]] = [[] for _ in parents]
    for node, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(node)
    return children


def tree_depth(levels: List[int]) -> int:
    """Depth of the BFS tree (max level)."""
    return max(levels)
