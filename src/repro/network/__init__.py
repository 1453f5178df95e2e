"""A synchronous message-passing network substrate.

The paper's simultaneous-message model abstracts the network away: "these
decisions are sent to a referee".  In a real deployment (the sensor-network
motivation of §1) the referee is realised by convergecast over a spanning
tree, and the relevant costs are *rounds* (O(diameter)) and *per-edge
message width* (O(log k) bits for an alarm count — the CONGEST accounting).
This package provides that realisation:

* :mod:`repro.network.topology` — standard graph topologies with
  validated connectivity (via networkx).
* :mod:`repro.network.simulator` — a synchronous round simulator with
  message counting and width accounting.
* :mod:`repro.network.spanning_tree` — distributed layered BFS.
* :mod:`repro.network.aggregation` — convergecast (sum to root) and
  broadcast (decision back down).
* :mod:`repro.network.tester` — the end-to-end network uniformity tester:
  sample → local alarm bit → convergecast count → threshold at the root →
  broadcast verdict.
"""

from .topology import (
    line_topology,
    star_topology,
    grid_topology,
    random_tree_topology,
    connected_gnp_topology,
    validate_topology,
)
from .simulator import NetworkSimulator, NodeProgram, RoundStats
from .spanning_tree import BfsTreeProgram, build_bfs_tree
from .aggregation import convergecast_sum, broadcast_value
from .tester import NetworkUniformityTester, NetworkRunReport
from .local_model import LocalUniformityTester, LocalRunReport

__all__ = [
    "line_topology",
    "star_topology",
    "grid_topology",
    "random_tree_topology",
    "connected_gnp_topology",
    "validate_topology",
    "NetworkSimulator",
    "NodeProgram",
    "RoundStats",
    "BfsTreeProgram",
    "build_bfs_tree",
    "convergecast_sum",
    "broadcast_value",
    "NetworkUniformityTester",
    "NetworkRunReport",
    "LocalUniformityTester",
    "LocalRunReport",
]
