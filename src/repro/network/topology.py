"""Network topologies for the message-passing substrate.

All constructors return a connected undirected :class:`networkx.Graph`
whose nodes are ``0 .. k-1``; node 0 is the conventional referee/root.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng

if TYPE_CHECKING:
    import networkx as nx


def validate_topology(graph: nx.Graph) -> None:
    """Raise unless the graph is a connected 0..k-1 labelled network."""
    import networkx

    if graph.number_of_nodes() == 0:
        raise InvalidParameterError("topology must have at least one node")
    expected = set(range(graph.number_of_nodes()))
    if set(graph.nodes) != expected:
        raise InvalidParameterError(
            "topology nodes must be labelled 0..k-1 contiguously"
        )
    if not networkx.is_connected(graph):
        raise InvalidParameterError("topology must be connected")


def line_topology(k: int) -> nx.Graph:
    """A path 0 — 1 — ... — k-1 (diameter k-1, worst case for rounds)."""
    import networkx

    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    return networkx.path_graph(k)


def star_topology(k: int) -> nx.Graph:
    """A star with centre 0 — the closest analogue of the referee model."""
    import networkx

    if k < 2:
        raise InvalidParameterError(f"star needs k >= 2, got {k}")
    return networkx.star_graph(k - 1)


def grid_topology(rows: int, cols: int) -> nx.Graph:
    """A rows×cols mesh, relabelled to 0..k-1 row-major."""
    import networkx

    if rows < 1 or cols < 1:
        raise InvalidParameterError("grid dimensions must be >= 1")
    grid = networkx.grid_2d_graph(rows, cols)
    mapping = {(r, c): r * cols + c for r in range(rows) for c in range(cols)}
    return networkx.relabel_nodes(grid, mapping)


def random_tree_topology(k: int, rng: RngLike = None) -> nx.Graph:
    """A uniformly random labelled tree on k nodes (random attachment)."""
    import networkx

    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    generator = ensure_rng(rng)
    graph = networkx.Graph()
    graph.add_node(0)
    for node in range(1, k):
        parent = int(generator.integers(0, node))
        graph.add_edge(node, parent)
    return graph


def connected_gnp_topology(k: int, edge_probability: float, rng: RngLike = None) -> nx.Graph:
    """A G(k, p) random graph, patched to connectivity along a random tree."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if not 0.0 <= edge_probability <= 1.0:
        raise InvalidParameterError(
            f"edge_probability must be in [0,1], got {edge_probability}"
        )
    generator = ensure_rng(rng)
    graph = random_tree_topology(k, generator)
    for u in range(k):
        for v in range(u + 1, k):
            if generator.random() < edge_probability:
                graph.add_edge(u, v)
    return graph


def diameter(graph: nx.Graph) -> int:
    """Graph diameter (the round-complexity driver)."""
    import networkx

    validate_topology(graph)
    if graph.number_of_nodes() == 1:
        return 0
    return int(networkx.diameter(graph))
