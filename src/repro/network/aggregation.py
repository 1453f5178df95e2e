"""Convergecast and broadcast over a spanning tree.

Convergecast is how the abstract "referee" of the paper's model is
realised in a network: partial sums flow leaf-to-root in depth rounds,
with O(log k)-bit messages (an alarm count).  Broadcast sends the root's
verdict back down.  Together they cost O(depth) rounds and O(k) messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from ..exceptions import InvalidParameterError
from .simulator import NetworkSimulator, NodeProgram, RoundStats
from .spanning_tree import children_of, tree_depth

if TYPE_CHECKING:
    import networkx as nx


class ConvergecastProgram(NodeProgram):
    """Sum values up the tree; the root's result is the total."""

    def __init__(
        self,
        value: int,
        parent: int,
        children: List[int],
        depth_bound: int,
    ):
        super().__init__()
        if value < 0:
            raise InvalidParameterError("convergecast values must be >= 0")
        self.value = int(value)
        self.parent = parent
        self.children = set(children)
        self.depth_bound = depth_bound
        self._received: Dict[int, int] = {}
        self._sent = False
        self.total: Optional[int] = None

    def on_round(self, round_index: int, inbox: Mapping[int, int]) -> Dict[int, int]:
        for sender, payload in inbox.items():
            if sender in self.children:
                self._received[sender] = payload
        outbox: Dict[int, int] = {}
        ready = len(self._received) == len(self.children)
        if ready and not self._sent:
            # Sum child payloads in sorted-sender order: the dict's fill
            # order follows message arrival, which is not part of the
            # protocol's deterministic contract.
            subtotal = self.value + sum(
                payload for _sender, payload in sorted(self._received.items())
            )
            if self.parent >= 0:
                outbox[self.parent] = subtotal
            else:
                self.total = subtotal
            self._sent = True
        if self._sent and (self.parent < 0 or round_index >= self.depth_bound):
            self.halted = True
        return outbox

    def result(self) -> Optional[int]:
        return self.total


class BroadcastProgram(NodeProgram):
    """Flood a value from the root down the tree."""

    def __init__(self, parent: int, children: List[int], depth_bound: int, value: Optional[int] = None):
        super().__init__()
        self.parent = parent
        self.children = list(children)
        self.depth_bound = depth_bound
        self.value = value  # set at the root, learned elsewhere
        self._forwarded = False

    def on_round(self, round_index: int, inbox: Mapping[int, int]) -> Dict[int, int]:
        if self.value is None and self.parent in inbox:
            self.value = inbox[self.parent]
        outbox: Dict[int, int] = {}
        if self.value is not None and not self._forwarded:
            for child in self.children:
                outbox[child] = self.value
            self._forwarded = True
        if self._forwarded and round_index >= 0 and (
            self.value is not None and round_index + 1 >= self.depth_bound + 1
        ):
            self.halted = True
        if self._forwarded and not self.children:
            self.halted = True
        return outbox

    def result(self) -> Optional[int]:
        return self.value


def convergecast_sum(
    graph: nx.Graph,
    parents: List[int],
    values: List[int],
    levels: Optional[List[int]] = None,
) -> Tuple[int, RoundStats]:
    """Sum ``values`` to the tree root; returns ``(total, stats)``."""
    if len(values) != graph.number_of_nodes() or len(parents) != len(values):
        raise InvalidParameterError("parents/values must match the topology size")
    depth = tree_depth(levels) if levels is not None else len(parents)
    kids = children_of(parents)
    programs = [
        ConvergecastProgram(values[node], parents[node], kids[node], depth + 1)
        for node in range(len(values))
    ]
    simulator = NetworkSimulator(graph, programs)
    stats = simulator.run(max_rounds=len(values) + 2)
    root = parents.index(-1)
    total = programs[root].total
    if total is None:
        raise InvalidParameterError("convergecast failed to complete")
    return int(total), stats


def broadcast_value(
    graph: nx.Graph,
    parents: List[int],
    value: int,
    levels: Optional[List[int]] = None,
) -> Tuple[List[int], RoundStats]:
    """Flood ``value`` from the root; returns per-node values and stats."""
    if len(parents) != graph.number_of_nodes():
        raise InvalidParameterError("parents must match the topology size")
    depth = tree_depth(levels) if levels is not None else len(parents)
    kids = children_of(parents)
    root = parents.index(-1)
    programs = [
        BroadcastProgram(
            parents[node],
            kids[node],
            depth,
            value=value if node == root else None,
        )
        for node in range(len(parents))
    ]
    simulator = NetworkSimulator(graph, programs)
    stats = simulator.run(max_rounds=len(parents) + 2)
    received = [program.value for program in programs]
    if any(v is None for v in received):
        raise InvalidParameterError("broadcast failed to reach every node")
    return [int(v) for v in received], stats
