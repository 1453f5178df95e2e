"""Comparison graphs: one statistic family behind every coincidence tester.

*Comparison Graphs: a Unified Method for Uniformity Testing* (arXiv
2012.01882, by the source paper's author) recasts the library's
coincidence statistics as one object: fix a graph ``G`` on the ``q``
sample slots, and count the **colliding edges**

    ``Y_G = Σ_{(u,v) ∈ E(G)} 1[X_u = X_v]``.

Its mean is ``|E|·‖P‖₂²`` for any sampled distribution ``P``, so under
``U_n`` it is exactly ``|E|/n`` while every ε-far distribution inflates
it to at least ``|E|(1+ε²)/n`` — the same first-order signal for every
graph, with graph structure only entering the variance.  Special graphs
recover the library's testers:

* the **complete** graph ``K_q`` — the pairwise collision count of
  :class:`~repro.core.testers.CentralizedCollisionTester` (and, in its
  *distinct* reading, :class:`~repro.core.baselines.UniqueElementsTester`);
* a **perfect matching** — independent sample pairs, the minimal-variance-
  per-edge statistic used by paired single-sample protocols;
* **star / cycle / complete-bipartite / random d-regular** graphs —
  intermediate edge budgets trading per-edge independence against edge
  count, swept by experiment e20.

Alongside the statistic this module owns the **moment/threshold
calibration API** (analytic midpoint thresholds, Monte-Carlo tail and
dither calibration, the worst-case ε-far proxy) that the per-tester
helpers in :mod:`repro.core.players` and :mod:`repro.core.testers` now
delegate to, and :class:`ComparisonGraphTester` — graph in, tester out —
whose ``accept_block`` runs through the engine's
:class:`~repro.engine.kernels.AcceptKernel` protocol unchanged.  The
Monte-Carlo calibrators are memoised in the engine's acceptance cache
(:func:`~repro.engine.cache.cached_calibration`).
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..distributions.discrete import DiscreteDistribution, uniform
from ..engine.cache import cached_calibration
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng
from .base import TesterResources, UniformityTester
from .players import (
    PlayerStrategy,
    birthday_no_collision_probability,
    collision_counts,
    unique_counts,
)

#: Statistic readings a graph supports: ``"edges"`` counts colliding
#: edges (the paper's Y_G); ``"distinct"`` counts vertices that differ
#: from every earlier neighbour (for K_q: the distinct-value count).
STATISTIC_MODES = ("edges", "distinct")


class ComparisonGraph:
    """A comparison graph: ``q`` sample slots plus a set of compared pairs.

    Edges are stored as two parallel ``int64`` arrays with ``u < v``,
    sorted by ``(v, u)`` so later-endpoint grouping (the *distinct*
    statistic) is one ``reduceat``.  Structured families carry their
    ``family`` name so fast paths and cache tokens can recognise them
    without inspecting the edge lists.

    ``edges=None`` is the complete graph ``K_q``, held implicitly: its
    edge count is closed-form, its cache token is ``(family, q)``, and
    the edge arrays are built only when a caller reads them.  An explicit
    edge list labelled ``"complete"`` must be exactly ``K_q``, so the
    complete-graph fast paths and token never describe a sparser graph.
    """

    def __init__(
        self,
        num_vertices: int,
        edges: Any = None,
        family: Optional[str] = None,
    ):
        if num_vertices < 2:
            raise InvalidParameterError(
                f"a comparison graph needs >= 2 vertices, got {num_vertices}"
            )
        self.num_vertices = int(num_vertices)
        complete_edges = self.num_vertices * (self.num_vertices - 1) // 2
        self._edge_u: Optional[np.ndarray] = None
        self._edge_v: Optional[np.ndarray] = None
        if edges is None:
            if family not in (None, "complete"):
                raise InvalidParameterError(
                    f"a {family!r} graph needs an explicit edge list"
                )
            self.family = "complete"
            self._num_edges = complete_edges
            return
        self.family = "explicit" if family is None else str(family)
        self._edge_u, self._edge_v = _canonical_edges(self.num_vertices, edges)
        self._num_edges = int(self._edge_u.size)
        if self.family == "complete" and self._num_edges != complete_edges:
            raise InvalidParameterError(
                f"a 'complete' graph on {self.num_vertices} vertices has "
                f"{complete_edges} edges, got {self._num_edges}"
            )

    def _materialise(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._edge_u is None or self._edge_v is None:
            # K_q in (v, u) order: tril_indices yields rows v > columns u,
            # row-major — the canonical sort of the explicit path.
            v, u = np.tril_indices(self.num_vertices, k=-1)
            self._edge_u = np.ascontiguousarray(u, dtype=np.int64)
            self._edge_v = np.ascontiguousarray(v, dtype=np.int64)
        return self._edge_u, self._edge_v

    @property
    def edge_u(self) -> np.ndarray:
        """Earlier endpoints (``int64``), in canonical edge order."""
        return self._materialise()[0]

    @property
    def edge_v(self) -> np.ndarray:
        """Later endpoints (``int64``), in canonical edge order."""
        return self._materialise()[1]

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def degrees(self) -> np.ndarray:
        """Vertex degrees (``int64``, length ``num_vertices``)."""
        counts = np.bincount(self.edge_u, minlength=self.num_vertices)
        counts += np.bincount(self.edge_v, minlength=self.num_vertices)
        return counts.astype(np.int64)

    @property
    def num_cherries(self) -> int:
        """Paths of length two, ``Σ_v C(deg_v, 2)`` — the adjacent edge
        pairs whose covariance drives the far-side variance."""
        degrees = self.degrees
        return int((degrees * (degrees - 1) // 2).sum())

    def content_hash(self) -> str:
        """Stable identity of the exact comparison structure."""
        digest = hashlib.sha256()
        digest.update(str(self.num_vertices).encode("utf-8"))
        digest.update(self.edge_u.tobytes())
        digest.update(self.edge_v.tobytes())
        return digest.hexdigest()[:16]

    @property
    def cache_token(self) -> Dict[str, Any]:
        """Identity of the graph in kernel and calibration cache keys.

        ``K_q`` is named by its size alone (the constructor guarantees a
        ``"complete"`` graph has every edge); other graphs add the hash
        of their exact edge structure.
        """
        token: Dict[str, Any] = {
            "family": self.family,
            "num_vertices": self.num_vertices,
        }
        if self.family != "complete":
            token["edges"] = self.content_hash()
        return token

    def __repr__(self) -> str:
        return (
            f"ComparisonGraph(family={self.family!r}, q={self.num_vertices}, "
            f"m={self.num_edges})"
        )


def _canonical_edges(num_vertices: int, edges: Any) -> Tuple[np.ndarray, np.ndarray]:
    """Validate an explicit edge list; return its ``(u, v)`` arrays with
    ``u < v``, sorted by ``(v, u)``."""
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.size == 0:
        raise InvalidParameterError("a comparison graph needs >= 1 edge")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidParameterError(
            f"edges must be an (m, 2) array, got shape {pairs.shape}"
        )
    if pairs.min() < 0 or pairs.max() >= num_vertices:
        raise InvalidParameterError(
            f"edge endpoints must lie in [0, {num_vertices})"
        )
    low = pairs.min(axis=1)
    high = pairs.max(axis=1)
    if np.any(low == high):
        raise InvalidParameterError("self-loops are not comparisons")
    order = np.lexsort((low, high))
    edge_u = np.ascontiguousarray(low[order])
    edge_v = np.ascontiguousarray(high[order])
    keys = edge_u * num_vertices + edge_v
    if np.unique(keys).size != keys.size:
        raise InvalidParameterError("duplicate edges are not allowed")
    return edge_u, edge_v


def complete_graph(q: int) -> ComparisonGraph:
    """``K_q``: every pair compared — the classical collision statistic.

    Held implicitly: no edge array is built unless a caller reads one.
    """
    if q < 2:
        raise InvalidParameterError(f"complete graph needs q >= 2, got {q}")
    return ComparisonGraph(q)


def star_graph(q: int) -> ComparisonGraph:
    """Vertex 0 compared against every other slot (``q - 1`` edges)."""
    if q < 2:
        raise InvalidParameterError(f"star graph needs q >= 2, got {q}")
    leaves = np.arange(1, q, dtype=np.int64)
    hub = np.zeros(q - 1, dtype=np.int64)
    return ComparisonGraph(q, np.column_stack((hub, leaves)), family="star")


def matching_graph(q: int) -> ComparisonGraph:
    """A perfect matching ``(0,1), (2,3), …`` — independent pairs."""
    if q < 2 or q % 2 != 0:
        raise InvalidParameterError(f"matching needs even q >= 2, got {q}")
    left = np.arange(0, q, 2, dtype=np.int64)
    return ComparisonGraph(q, np.column_stack((left, left + 1)), family="matching")


def cycle_graph(q: int) -> ComparisonGraph:
    """The ``q``-cycle: each slot compared with its two neighbours."""
    if q < 3:
        raise InvalidParameterError(f"cycle graph needs q >= 3, got {q}")
    u = np.arange(q, dtype=np.int64)
    v = (u + 1) % q
    return ComparisonGraph(q, np.column_stack((u, v)), family="cycle")


def bipartite_graph(q: int) -> ComparisonGraph:
    """Complete bipartite graph between the two halves of the slots."""
    if q < 2:
        raise InvalidParameterError(f"bipartite graph needs q >= 2, got {q}")
    split = (q + 1) // 2
    left = np.repeat(np.arange(split, dtype=np.int64), q - split)
    right = np.tile(np.arange(split, q, dtype=np.int64), split)
    return ComparisonGraph(q, np.column_stack((left, right)), family="bipartite")


def random_regular_graph(q: int, degree: int, seed: int = 0) -> ComparisonGraph:
    """A random ``degree``-regular graph from the pairing model.

    Deterministic in ``(q, degree, seed)``: stubs are paired by a
    generator derived from ``SeedSequence(seed, spawn_key=(q, degree))``
    and pairings with self-loops or repeated edges are rejected and
    redrawn, so the same arguments always yield the same graph on every
    platform.
    """
    if degree < 1:
        raise InvalidParameterError(f"degree must be >= 1, got {degree}")
    if q <= degree:
        raise InvalidParameterError(
            f"a {degree}-regular graph needs q > degree, got q={q}"
        )
    if (q * degree) % 2 != 0:
        raise InvalidParameterError(
            f"q*degree must be even for a regular graph, got q={q}, d={degree}"
        )
    generator = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(q), int(degree)))
    )
    stubs = np.repeat(np.arange(q, dtype=np.int64), degree)
    for _ in range(1000):
        paired = generator.permutation(stubs).reshape(-1, 2)
        low = paired.min(axis=1)
        high = paired.max(axis=1)
        if np.any(low == high):
            continue
        keys = low * q + high
        if np.unique(keys).size != keys.size:
            continue
        return ComparisonGraph(q, paired, family=f"regular{degree}")
    raise InvalidParameterError(
        f"could not draw a simple {degree}-regular graph on {q} vertices"
    )


#: Family name → ``builder(q)``; the sweep layer's registry.  Regular
#: families are registered per degree so the name alone parameterises
#: the graph (``"regular3"`` → 3-regular at the snapped size).
GRAPH_FAMILIES: Dict[str, Callable[[int], ComparisonGraph]] = {
    "complete": complete_graph,
    "star": star_graph,
    "matching": matching_graph,
    "cycle": cycle_graph,
    "bipartite": bipartite_graph,
    "regular3": lambda q: random_regular_graph(q, 3),
}


def snap_family_size(family: str, q: int) -> int:
    """The nearest valid slot count >= ``q`` for a structured family.

    The complexity search probes arbitrary integer levels; families with
    parity or minimum-size constraints (matchings need even ``q``,
    cycles need ``q >= 3``, ``d``-regular graphs need ``q > d`` with
    ``q·d`` even) snap the level up so every probe is buildable.
    """
    if family not in GRAPH_FAMILIES:
        raise InvalidParameterError(
            f"unknown graph family {family!r}; known: {sorted(GRAPH_FAMILIES)}"
        )
    snapped = max(2, int(q))
    if family == "matching" and snapped % 2 != 0:
        snapped += 1
    if family == "cycle":
        snapped = max(3, snapped)
    if family.startswith("regular"):
        degree = int(family[len("regular"):])
        snapped = max(degree + 1, snapped)
        if (snapped * degree) % 2 != 0:
            snapped += 1
    return snapped


def build_family_graph(family: str, q: int) -> ComparisonGraph:
    """Build a registered family's graph at (the snapped) size ``q``."""
    return GRAPH_FAMILIES[family](snap_family_size(family, q))


def _validate_mode(mode: str) -> str:
    if mode not in STATISTIC_MODES:
        raise InvalidParameterError(
            f"unknown statistic mode {mode!r}; known: {STATISTIC_MODES}"
        )
    return mode


def graph_statistic_block(
    graph: ComparisonGraph, samples: np.ndarray, mode: str = "edges"
) -> np.ndarray:
    """The graph statistic per row of a ``(rows × q)`` sample matrix.

    ``mode="edges"`` counts colliding edges ``Y_G``; ``mode="distinct"``
    counts vertices whose value differs from every *earlier* neighbour
    (under the canonical ``u < v`` orientation) — for the complete graph
    these are exactly the pairwise collision count and the distinct-value
    count, and both take the sort-based fast paths of
    :mod:`repro.core.players` instead of materialising ``O(q²)`` edges.
    Fully vectorised across rows; ``int64`` either way.
    """
    _validate_mode(mode)
    matrix = np.asarray(samples, dtype=np.int64)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    if matrix.shape[1] != graph.num_vertices:
        raise InvalidParameterError(
            f"samples have {matrix.shape[1]} columns; graph compares "
            f"{graph.num_vertices} slots"
        )
    if graph.family == "complete":
        if mode == "edges":
            return collision_counts(matrix)
        return unique_counts(matrix)
    collide = matrix[:, graph.edge_u] == matrix[:, graph.edge_v]
    if mode == "edges":
        return collide.sum(axis=1).astype(np.int64)
    # Distinct reading: a vertex is "covered" when any backward edge
    # into it collides; edges are pre-sorted by their later endpoint, so
    # one reduceat per row groups them.
    targets, starts = np.unique(graph.edge_v, return_index=True)
    del targets  # only the group boundaries matter
    covered = np.add.reduceat(collide.astype(np.int64), starts, axis=1) > 0
    return (graph.num_vertices - covered.sum(axis=1)).astype(np.int64)


def uniform_statistic_moments(graph: ComparisonGraph, n: int) -> Tuple[float, float]:
    """Exact ``(mean, variance)`` of the edge statistic under ``U_n``.

    ``E[Y_G] = m/n``.  Under the uniform distribution any two distinct
    edges are *uncorrelated* — sharing a vertex or not, both endpoints
    coincide with probability ``1/n²`` — so the variance is the sum of
    the per-edge Bernoulli variances, ``m·(1/n)(1 − 1/n)``, independent
    of the graph's shape.  (Far distributions break this: adjacent edge
    pairs pick up covariance ``‖P‖₃³ − ‖P‖₂⁴``, scaled by
    :attr:`ComparisonGraph.num_cherries` — which is why graph families
    with equal ``m`` can have very different sample complexities.)
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    m = graph.num_edges
    p = 1.0 / n
    return m * p, m * p * (1.0 - p)


def far_statistic_mean_bound(
    graph: ComparisonGraph, n: int, epsilon: float
) -> float:
    """The least possible ``E[Y_G]`` over ε-far distributions.

    An ε-far distribution has ``‖P‖₂² >= (1+ε²)/n``, and the statistic's
    mean is ``m·‖P‖₂²`` for every comparison graph, so the bound is
    ``m(1+ε²)/n`` — attained by the two-level proxy.
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    return graph.num_edges * (1.0 + epsilon**2) / n


def midpoint_threshold(graph: ComparisonGraph, n: int, epsilon: float) -> float:
    """The analytic accept/reject cut: midway between the uniform mean
    ``m/n`` and the minimum ε-far mean ``m(1+ε²)/n``.

    Evaluated as ``m·(1 + ε²/2)/n`` — algebraically the midpoint, and
    ulp-for-ulp the arithmetic the pre-refactor collision testers used,
    so their verdicts survive the rewrite bit-identically.
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    return graph.num_edges * (1.0 + epsilon**2 / 2.0) / n


def worst_case_statistic_proxy(
    graph: ComparisonGraph, n: int, epsilon: float
) -> DiscreteDistribution:
    """The least-detectable ε-far distribution for graph calibration.

    The two-level distribution (pmf values ``(1±ε)/n``) minimises
    ``‖P‖₂²`` over ε-far distributions, and the joint law of the sample
    *coincidence pattern* — hence of every comparison-graph statistic, in
    either mode, on every graph — depends only on the multiset of
    probabilities.  Calibrating on it is therefore exact for the whole
    hard family ν_z and conservative for every other ε-far input, for
    **every** graph family; the ``graph`` argument pins the calibration
    call to its family in the signature (and guards the domain check)
    rather than silently reusing a collision-specific constant.
    """
    from ..distributions.generators import two_level_distribution

    if n <= graph.num_vertices and n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    even_n = n if n % 2 == 0 else n - 1
    return two_level_distribution(even_n, epsilon)


def exact_no_collision_probability(
    graph: ComparisonGraph, n: int
) -> Optional[float]:
    """``P[Y_G = 0]`` under ``U_n`` in closed form, where one exists.

    Complete graphs use the birthday bound; matchings and stars factor
    into independent/conditionally-independent edges; cycles use the
    proper-colouring count ``((n-1)^q + (-1)^q (n-1)) / n^q``.  Other
    families return ``None`` and calibration falls back to Monte Carlo.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    q = graph.num_vertices
    m = graph.num_edges
    if graph.family == "complete":
        return birthday_no_collision_probability(n, q)
    if graph.family == "matching":
        return (1.0 - 1.0 / n) ** m
    if graph.family == "star":
        return (1.0 - 1.0 / n) ** m
    if graph.family == "cycle":
        colourings = (n - 1.0) ** q + ((-1.0) ** q) * (n - 1.0)
        return float(colourings / n**q)
    return None


@cached_calibration(version=1)
def statistic_alarm_probabilities(
    graph: ComparisonGraph,
    n: int,
    epsilon: float,
    threshold: float,
    trials: int = 3000,
    rng: RngLike = 0,
) -> Tuple[float, float]:
    """``(p₀, p₁)``: alarm probabilities of ``Y_G > threshold`` under
    ``U_n`` and under the worst-case ε-far proxy, by Monte Carlo.

    The draw order is the uniform matrix first, then the proxy's.
    """
    if trials < 100:
        raise InvalidParameterError(f"trials must be >= 100, got {trials}")
    q = graph.num_vertices
    generator = ensure_rng(rng)
    statistic = functools.partial(graph_statistic_block, graph)
    uniform_stats = uniform(n).sample_statistic(trials, q, statistic, generator)
    far = worst_case_statistic_proxy(graph, n, epsilon)
    far_stats = far.sample_statistic(trials, q, statistic, generator)
    p_uniform = float((uniform_stats > threshold).mean())
    p_far = float((far_stats > threshold).mean())
    return p_uniform, p_far


@cached_calibration(version=1)
def calibrate_statistic_threshold(
    graph: ComparisonGraph,
    n: int,
    max_reject_probability: float,
    trials: int = 4000,
    rng: RngLike = None,
) -> Tuple[int, float]:
    """Smallest cut ``t`` with ``P_uniform[Y_G > t] <= target``.

    Returns ``(t, estimated_reject_probability)``.  Where the family has
    a closed-form ``P[Y_G = 0]`` the ``t = 0`` case is decided exactly
    without spending any Monte Carlo draws; otherwise — and for every
    higher ``t`` — the tail is estimated from ``trials`` draws padded by
    one standard error so the calibration errs conservative.  The
    AND-rule tester calls it on ``K_q`` with ``max_reject_probability =
    1/(3k)``.
    """
    if not 0.0 < max_reject_probability <= 1.0:
        raise InvalidParameterError(
            f"max_reject_probability must be in (0,1], got {max_reject_probability}"
        )
    if trials < 100:
        raise InvalidParameterError(f"trials must be >= 100, got {trials}")
    exact_any = exact_no_collision_probability(graph, n)
    if exact_any is not None:
        exact_alarm = 1.0 - exact_any
        if exact_alarm <= max_reject_probability:
            return 0, exact_alarm

    counts = uniform(n).sample_statistic(
        trials, graph.num_vertices, functools.partial(graph_statistic_block, graph), rng
    )
    maximum = int(counts.max())
    for t in range(0, maximum + 1):
        tail = float((counts > t).mean())
        standard_error = np.sqrt(max(tail * (1 - tail), 1.0 / trials) / trials)
        if tail + standard_error <= max_reject_probability:
            return t, tail
    return maximum + 1, 0.0


@cached_calibration(version=1)
def calibrate_dithered_statistic(
    graph: ComparisonGraph,
    n: int,
    target_alarm_rate: float,
    trials: int = 4000,
    rng: RngLike = None,
) -> Tuple[int, float, float]:
    """Threshold-plus-dither hitting an exact alarm rate under ``U_n``.

    Returns ``(threshold, boundary_probability, achieved_rate)``: alarm
    whenever ``Y_G > t`` and with probability ``boundary_probability``
    at ``Y_G == t`` — the integer-valued statistic can only realise a
    discrete set of deterministic rates, and the dither interpolates
    between them (what the forced-T threshold tester needs for exact
    completeness calibration).
    """
    if not 0.0 < target_alarm_rate <= 1.0:
        raise InvalidParameterError(
            f"target_alarm_rate must be in (0,1], got {target_alarm_rate}"
        )
    if trials < 100:
        raise InvalidParameterError(f"trials must be >= 100, got {trials}")
    counts = uniform(n).sample_statistic(
        trials, graph.num_vertices, functools.partial(graph_statistic_block, graph), rng
    )
    maximum = int(counts.max())
    for t in range(0, maximum + 2):
        tail = float((counts > t).mean())
        if tail <= target_alarm_rate:
            at_boundary = float((counts == t).mean())
            if at_boundary <= 0.0:
                return t, 0.0, tail
            gamma = min(1.0, (target_alarm_rate - tail) / at_boundary)
            return t, gamma, tail + gamma * at_boundary
    return maximum + 1, 0.0, 0.0


@cached_calibration(version=1)
def calibrate_distinct_threshold(
    graph: ComparisonGraph,
    n: int,
    epsilon: float,
    trials: int = 3000,
    rng: RngLike = 0,
) -> float:
    """Monte-Carlo midpoint cut for the *distinct* statistic.

    Far inputs collide more, so they leave fewer vertices distinct from
    their earlier neighbours; the cut sits midway between the uniform
    and worst-case-far means.  Draw order (uniform matrix, then the
    proxy's, one shared generator) reproduces the legacy
    :class:`~repro.core.baselines.UniqueElementsTester` calibration
    bit-for-bit on the complete graph.
    """
    if trials < 100:
        raise InvalidParameterError(f"trials must be >= 100, got {trials}")
    q = graph.num_vertices
    generator = ensure_rng(rng)
    statistic = functools.partial(graph_statistic_block, graph, mode="distinct")
    uniform_distinct = uniform(n).sample_statistic(trials, q, statistic, generator)
    far = worst_case_statistic_proxy(graph, n, epsilon)
    far_distinct = far.sample_statistic(trials, q, statistic, generator)
    return 0.5 * (float(uniform_distinct.mean()) + float(far_distinct.mean()))


class GraphStatisticPlayer(PlayerStrategy):
    """One-bit player built on a comparison-graph statistic.

    Accepts (sends 1) iff the statistic is on the uniform side of the
    threshold: ``Y_G <= t`` in edge mode, ``D_G >= t`` in distinct mode.
    With the complete graph and edge mode this is the collision bit
    ``K <= t`` of the threshold-rule tester; the network layer
    instantiates it per family so any registered graph can drive the
    distributed protocol's alarm bits.
    """

    relabel_invariant = True

    def __init__(self, graph: ComparisonGraph, threshold: float, mode: str = "edges"):
        if threshold < 0:
            raise InvalidParameterError(f"threshold must be >= 0, got {threshold}")
        self.graph = graph
        self.threshold = float(threshold)
        self.mode = _validate_mode(mode)

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        statistics = graph_statistic_block(self.graph, samples, self.mode)
        if self.mode == "distinct":
            return (statistics >= self.threshold).astype(np.int64)
        return (statistics <= self.threshold).astype(np.int64)

    @property
    def name(self) -> str:
        return (
            f"GraphStatisticPlayer({self.graph.family}, q={self.graph.num_vertices}, "
            f"m={self.graph.num_edges}, mode={self.mode}, t={self.threshold})"
        )


class ComparisonGraphTester(UniformityTester):
    """Graph in, tester out: the unified coincidence tester.

    Draws ``q = graph.num_vertices`` samples per execution, computes the
    graph statistic, and thresholds it:

    * ``mode="edges"`` — accept iff ``Y_G <= threshold``; the default
      cut is the analytic :func:`midpoint_threshold` between the uniform
      mean and the minimum ε-far mean (exactly the classical collision
      cut on ``K_q``);
    * ``mode="distinct"`` — accept iff ``D_G >= threshold``; the default
      cut is the Monte-Carlo :func:`calibrate_distinct_threshold`
      midpoint (exactly the legacy unique-elements cut on ``K_q``).

    The tester is a native :class:`~repro.engine.kernels.AcceptKernel`:
    it carries its own ``cache_token`` (the graph's token, mode, cut and
    per-class ``kernel_version``) so cached acceptance curves
    can never collide across graphs that share ``(n, q)``.  Both
    statistics see only which slots hold equal values, so the verdicts
    are relabel-invariant.
    """

    #: Bumped when the kernel's draw order or statistic changes.
    kernel_version = 1

    relabel_invariant = True

    def __init__(
        self,
        n: int,
        epsilon: float,
        graph: ComparisonGraph,
        mode: str = "edges",
        threshold: Optional[float] = None,
        calibration_rng: RngLike = 0,
        calibration_trials: int = 3000,
    ):
        super().__init__(n, epsilon)
        if not isinstance(graph, ComparisonGraph):
            raise InvalidParameterError(
                f"graph must be a ComparisonGraph, got {type(graph).__name__}"
            )
        self.graph = graph
        self.mode = _validate_mode(mode)
        self.q = graph.num_vertices
        if threshold is not None:
            self.statistic_threshold = float(threshold)
        elif self.mode == "edges":
            self.statistic_threshold = midpoint_threshold(graph, n, epsilon)
        else:
            self.statistic_threshold = calibrate_distinct_threshold(
                graph, n, epsilon, trials=calibration_trials, rng=calibration_rng
            )

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Single-tile kernel: one sample matrix, one statistic, one cut."""
        generator = ensure_rng(rng)
        samples = distribution.sample_matrix(trials, self.q, generator)
        statistics = graph_statistic_block(self.graph, samples, self.mode)
        if self.mode == "distinct":
            return statistics >= self.statistic_threshold
        return statistics <= self.statistic_threshold

    @property
    def cache_token(self) -> Dict[str, Any]:
        return {
            **self._token_header("tester"),
            "n": self.n,
            "epsilon": self.epsilon,
            "q": self.q,
            "mode": self.mode,
            "graph": self.graph.cache_token,
            "threshold": float(self.statistic_threshold),
        }

    @property
    def elements_per_trial(self) -> int:
        # q drawn samples; explicit-edge statistics additionally
        # materialise one boolean per edge, the complete fast path a
        # sorted copy of the row.  Either way an over-declaration is
        # safe (footprint hint), an under-declaration is not (the kernel
        # contract test counts the draws).
        if self.graph.family == "complete":
            return 2 * self.q
        return self.q + self.graph.num_edges

    @property
    def resources(self) -> TesterResources:
        return TesterResources(num_players=1, samples_per_player=self.q, message_bits=0)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, eps={self.epsilon}, "
            f"graph={self.graph.family}/q{self.q}/m{self.graph.num_edges}, "
            f"mode={self.mode})"
        )


def graph_tester_factory(
    family: str, n: int, epsilon: float, mode: str = "edges"
) -> Callable[[int], ComparisonGraphTester]:
    """``q → ComparisonGraphTester`` factory for one registered family.

    The returned callable is what the empirical-complexity search (and
    experiment e20) sweeps: each probed level ``q`` is snapped to the
    family's nearest valid size and instantiated as a fresh tester.
    """
    if family not in GRAPH_FAMILIES:
        raise InvalidParameterError(
            f"unknown graph family {family!r}; known: {sorted(GRAPH_FAMILIES)}"
        )

    def factory(q: int) -> ComparisonGraphTester:
        return ComparisonGraphTester(n, epsilon, build_family_graph(family, q), mode=mode)

    return factory
