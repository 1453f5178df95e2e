"""Streaming-tester plugin registry.

Mirrors the experiment-registry pattern (PR-4): plugins register at
import time through :func:`register_plugin`, the registry is the single
source the battery runner and the equivalence tests iterate, and a
discovery meta-test pins the invariant that **no streaming tester class
can exist unregistered** — every concrete
:class:`~repro.core.streaming.StreamingTester` subclass in the library
must be constructible through at least one registered plugin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..exceptions import InvalidParameterError
from .graphs import build_family_graph, snap_family_size
from .streaming import (
    StreamingCollisionTester,
    StreamingDistinctTester,
    StreamingGraphTester,
    StreamingTester,
)

#: Bucket count used by the built-in sketched plugin variants.
SKETCH_BUCKETS = 64

#: ``factory(n, epsilon) -> StreamingTester``.
PluginFactory = Callable[[int, float], StreamingTester]


@dataclass(frozen=True)
class StreamingPlugin:
    """One registered streaming tester: name, blurb, factory, exactness.

    ``exact`` records whether the plugin's verdicts are bit-identical to
    a batch tester (True) or pinned to its own bucketed batch oracle
    (False) — the battery report surfaces it so sketched rows are never
    mistaken for the exact statistic.
    """

    name: str
    description: str
    factory: PluginFactory
    exact: bool = True


_REGISTRY: Dict[str, StreamingPlugin] = {}


def register_plugin(
    name: str, description: str, exact: bool = True
) -> Callable[[PluginFactory], PluginFactory]:
    """Decorator registering ``factory(n, epsilon)`` under ``name``.

    Names are unique; re-registering is an error (it would silently
    shadow a battery column).
    """

    def decorator(factory: PluginFactory) -> PluginFactory:
        if name in _REGISTRY:
            raise InvalidParameterError(
                f"streaming plugin {name!r} is already registered"
            )
        _REGISTRY[name] = StreamingPlugin(
            name=name, description=description, factory=factory, exact=exact
        )
        return factory

    return decorator


def registered_plugins() -> Dict[str, StreamingPlugin]:
    """All registered plugins, name-sorted."""
    return dict(sorted(_REGISTRY.items()))


def plugin_names() -> List[str]:
    """Sorted registered plugin names."""
    return list(registered_plugins())


def get_plugin(name: str) -> StreamingPlugin:
    """Look one plugin up by name."""
    plugins = registered_plugins()
    if name not in plugins:
        raise InvalidParameterError(
            f"unknown streaming plugin {name!r}; registered: {list(plugins)}"
        )
    return plugins[name]


def _graph_q(n: int, epsilon: float, family: str) -> int:
    from .testers import default_centralized_q

    return snap_family_size(family, default_centralized_q(n, epsilon))


@register_plugin(
    "collision-exact",
    "incremental K_q collision count, bit-identical to "
    "CentralizedCollisionTester",
)
def _collision_exact(n: int, epsilon: float) -> StreamingTester:
    return StreamingCollisionTester(n, epsilon)


@register_plugin(
    "collision-sketch64",
    f"collision count sketched into {SKETCH_BUCKETS} buckets "
    "(constant memory, bucketed-oracle pinned)",
    exact=False,
)
def _collision_sketch(n: int, epsilon: float) -> StreamingTester:
    return StreamingCollisionTester(n, epsilon, num_buckets=SKETCH_BUCKETS)


@register_plugin(
    "distinct-exact",
    "incremental distinct-element count, bit-identical to "
    "UniqueElementsTester",
)
def _distinct_exact(n: int, epsilon: float) -> StreamingTester:
    return StreamingDistinctTester(n, epsilon)


@register_plugin(
    "distinct-sketch64",
    f"distinct count sketched into {SKETCH_BUCKETS} buckets "
    "(constant memory, bucketed-oracle pinned)",
    exact=False,
)
def _distinct_sketch(n: int, epsilon: float) -> StreamingTester:
    return StreamingDistinctTester(n, epsilon, num_buckets=SKETCH_BUCKETS)


@register_plugin(
    "graph-cycle",
    "streaming cycle-graph edge statistic, bit-identical to "
    "ComparisonGraphTester(cycle)",
)
def _graph_cycle(n: int, epsilon: float) -> StreamingTester:
    q = _graph_q(n, epsilon, "cycle")
    return StreamingGraphTester(n, epsilon, build_family_graph("cycle", q))


@register_plugin(
    "graph-matching",
    "streaming perfect-matching edge statistic, bit-identical to "
    "ComparisonGraphTester(matching)",
)
def _graph_matching(n: int, epsilon: float) -> StreamingTester:
    q = _graph_q(n, epsilon, "matching")
    return StreamingGraphTester(n, epsilon, build_family_graph("matching", q))


@register_plugin(
    "graph-bipartite-distinct",
    "streaming bipartite distinct statistic, bit-identical to "
    "ComparisonGraphTester(bipartite, distinct)",
)
def _graph_bipartite_distinct(n: int, epsilon: float) -> StreamingTester:
    q = _graph_q(n, epsilon, "bipartite")
    return StreamingGraphTester(
        n, epsilon, build_family_graph("bipartite", q), mode="distinct"
    )
