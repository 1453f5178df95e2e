"""A synchronous message-passing simulator with CONGEST accounting.

Execution follows the standard synchronous model: in every round each node
reads the messages its neighbours sent in the previous round, updates its
local state, and emits at most one message per incident edge.  The
simulator tracks total messages and the widest message payload (in bits)
so protocols can report their CONGEST footprint.

Programs subclass :class:`NodeProgram` and implement ``on_round``; the
payloads are small integers (the model's B-bit words).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from ..exceptions import InvalidParameterError, ProtocolError
from .topology import validate_topology

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class RoundStats:
    """Cost accounting for one simulated execution."""

    rounds: int = 0
    messages: int = 0
    max_message_bits: int = 0

    def record_message(self, payload: int) -> None:
        self.messages += 1
        width = int(payload).bit_length() if payload not in (0, None) else 1
        self.max_message_bits = max(self.max_message_bits, max(width, 1))


class NodeProgram(ABC):
    """Per-node protocol logic.

    Attributes available to subclasses after binding:

    * ``node_id`` — this node's label;
    * ``neighbors`` — sorted neighbour labels;
    * ``halted`` — set to True to stop participating (the simulation ends
      when every node halts).
    """

    def __init__(self) -> None:
        self.node_id: int = -1
        self.neighbors: List[int] = []
        self.halted: bool = False

    def bind(self, node_id: int, neighbors: List[int]) -> None:
        """Attach the program to its place in the network."""
        self.node_id = node_id
        self.neighbors = sorted(neighbors)

    @abstractmethod
    def on_round(self, round_index: int, inbox: Mapping[int, int]) -> Dict[int, int]:
        """Process one round.

        ``inbox`` maps neighbour id → payload received this round; the
        return value maps neighbour id → payload to send.  Return an empty
        dict to stay silent.
        """

    def result(self) -> Optional[int]:
        """The node's output after halting (None if it produces none)."""
        return None


class NetworkSimulator:
    """Drive a set of :class:`NodeProgram` instances over a topology."""

    def __init__(self, graph: nx.Graph, programs: List[NodeProgram]):
        validate_topology(graph)
        if len(programs) != graph.number_of_nodes():
            raise InvalidParameterError(
                f"need {graph.number_of_nodes()} programs, got {len(programs)}"
            )
        self.graph = graph
        self.programs = programs
        for node_id, program in enumerate(programs):
            program.bind(node_id, list(graph.neighbors(node_id)))
        self.stats = RoundStats()

    def run(self, max_rounds: int = 10_000) -> RoundStats:
        """Execute rounds until every node halts (or raise on timeout)."""
        if max_rounds < 1:
            raise InvalidParameterError(f"max_rounds must be >= 1, got {max_rounds}")
        pending: Dict[int, Dict[int, int]] = {
            node: {} for node in self.graph.nodes
        }
        for round_index in range(max_rounds):
            if all(program.halted for program in self.programs):
                return self.stats
            self.stats.rounds += 1
            next_pending: Dict[int, Dict[int, int]] = {
                node: {} for node in self.graph.nodes
            }
            for node_id, program in enumerate(self.programs):
                if program.halted:
                    continue
                outbox = program.on_round(round_index, pending[node_id])
                for target, payload in outbox.items():
                    if target not in program.neighbors:
                        raise ProtocolError(
                            f"node {node_id} tried to message non-neighbour {target}"
                        )
                    self.stats.record_message(payload)
                    next_pending[target][node_id] = payload
            pending = next_pending
        raise ProtocolError(
            f"network did not halt within {max_rounds} rounds "
            f"({sum(not p.halted for p in self.programs)} nodes still active)"
        )

    def results(self) -> List[Optional[int]]:
        """Per-node outputs after the run."""
        return [program.result() for program in self.programs]
