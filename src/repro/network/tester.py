"""End-to-end uniformity testing over a message-passing network.

Realises the paper's simultaneous model on a concrete topology:

1. build a BFS spanning tree rooted at the referee node (O(D) rounds);
2. every node draws q samples and computes a calibrated comparison-graph
   alarm bit (:class:`~repro.core.graphs.GraphStatisticPlayer`; the
   default complete graph reproduces the collision-alarm bit of
   :class:`~repro.core.testers.ThresholdRuleTester` exactly);
3. the alarm *count* is convergecast to the root (O(depth) rounds,
   O(log k)-bit messages — the CONGEST footprint);
4. the root applies the threshold rule and broadcasts the verdict.

Statistically this is exactly the threshold-rule tester generalised to an
arbitrary per-node comparison graph (the test suite asserts the
complete-graph equivalence bit-for-bit); what the network adds is the
cost model: rounds ≈ BFS + 2·depth and per-edge messages of ⌈log₂(k+1)⌉
bits.  Note the two unrelated graphs in play: the *topology* wires the
players together, the *comparison graph* wires each player's own samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..core.graphs import (
    ComparisonGraph,
    GraphStatisticPlayer,
    complete_graph,
    midpoint_threshold,
    statistic_alarm_probabilities,
)
from ..core.testers import default_distributed_q
from ..distributions.discrete import DiscreteDistribution
from ..engine import KernelBase
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng
from .aggregation import broadcast_value, convergecast_sum
from .spanning_tree import build_bfs_tree, tree_depth
from .topology import validate_topology

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class NetworkRunReport:
    """One network execution with its distributed-cost accounting."""

    accepted: bool
    alarm_count: int
    rounds: int
    messages: int
    max_message_bits: int
    tree_depth: int
    all_nodes_learned_verdict: bool


class NetworkUniformityTester(KernelBase):
    """Uniformity testing deployed on a network topology.

    Parameters
    ----------
    graph:
        Connected topology on nodes 0..k-1; node ``root`` hosts the
        referee.  The number of players k is the node count.
    n, epsilon:
        Testing problem parameters.
    q:
        Samples per node (defaults to the threshold tester's optimum).
    root:
        Referee node id.
    comparison_graph:
        Per-node comparison graph driving each player's alarm bit.
        ``None`` (the default) uses the complete graph on the q samples —
        the classical collision bit, calibrated bit-identically to
        :class:`~repro.core.testers.ThresholdRuleTester`.  Passing a
        graph fixes ``q = comparison_graph.num_vertices``.
    """

    #: v2: per-node statistic generalised to an arbitrary comparison
    #: graph, whose cache token keys the curve.
    kernel_version = 2

    def __init__(
        self,
        graph: nx.Graph,
        n: int,
        epsilon: float,
        q: Optional[int] = None,
        root: int = 0,
        calibration_rng: RngLike = 0,
        calibration_trials: int = 3000,
        comparison_graph: Optional[ComparisonGraph] = None,
    ):
        validate_topology(graph)
        self.graph = graph
        self.k = graph.number_of_nodes()
        if not 0 <= root < self.k:
            raise InvalidParameterError(f"root {root} outside [0, {self.k})")
        self.root = root
        self.n = n
        self.epsilon = float(epsilon)
        if comparison_graph is None:
            q = q if q is not None else default_distributed_q(n, self.k, epsilon)
            if q < 2:
                raise InvalidParameterError(f"q must be >= 2, got {q}")
            comparison_graph = complete_graph(q)
        elif q is not None and q != comparison_graph.num_vertices:
            raise InvalidParameterError(
                f"q={q} conflicts with the comparison graph's "
                f"{comparison_graph.num_vertices} sample slots"
            )
        self.comparison_graph = comparison_graph
        self.q = comparison_graph.num_vertices
        # The same calibration the simultaneous threshold-rule tester
        # runs, generalised to the node's comparison graph: cut each
        # node's statistic at the analytic midpoint, then place the
        # referee threshold midway between the alarm probabilities under
        # U_n and under the worst-case ε-far proxy.
        self.player_statistic_threshold = midpoint_threshold(
            comparison_graph, n, self.epsilon
        )
        p_uniform, p_far = statistic_alarm_probabilities(
            comparison_graph,
            n,
            self.epsilon,
            self.player_statistic_threshold,
            calibration_trials,
            calibration_rng,
        )
        midpoint = self.k * 0.5 * (p_uniform + p_far)
        self.reject_threshold = min(self.k, max(1, int(math.ceil(midpoint))))
        self.player_reject_probability = p_uniform
        self._player = GraphStatisticPlayer(
            comparison_graph, self.player_statistic_threshold
        )
        # The spanning tree is topology state, built once (rebuilding per
        # execution only re-derives the same tree deterministically).
        self.parents, self.levels, self._bfs_stats = build_bfs_tree(graph, root)

    def local_alarms(
        self, distribution: DiscreteDistribution, rng: RngLike = None
    ) -> np.ndarray:
        """Per-node alarm bits for one execution (1 = alarm/reject)."""
        generator = ensure_rng(rng)
        samples = distribution.sample_matrix(self.k, self.q, generator)
        accept_bits = self._player.respond_batch(samples, generator)
        return 1 - np.asarray(accept_bits, dtype=np.int64)

    def run(
        self, distribution: DiscreteDistribution, rng: RngLike = None
    ) -> NetworkRunReport:
        """One full network execution with cost accounting."""
        alarms = self.local_alarms(distribution, rng)
        return self.decide_from_alarms(alarms)

    def decide_from_alarms(self, alarms: np.ndarray) -> NetworkRunReport:
        """Aggregate explicit alarm bits over the network (deterministic).

        Split out from :meth:`run` so tests can verify bit-for-bit
        equivalence with the simultaneous-model referee.
        """
        alarm_list = [int(bit) for bit in np.asarray(alarms, dtype=np.int64)]
        if len(alarm_list) != self.k:
            raise InvalidParameterError(
                f"need {self.k} alarm bits, got {len(alarm_list)}"
            )
        total, up_stats = convergecast_sum(
            self.graph, self.parents, alarm_list, self.levels
        )
        accepted = total < self.reject_threshold
        verdicts, down_stats = broadcast_value(
            self.graph, self.parents, int(accepted), self.levels
        )
        return NetworkRunReport(
            accepted=accepted,
            alarm_count=total,
            rounds=self._bfs_stats.rounds + up_stats.rounds + down_stats.rounds,
            messages=self._bfs_stats.messages
            + up_stats.messages
            + down_stats.messages,
            max_message_bits=max(
                self._bfs_stats.max_message_bits,
                up_stats.max_message_bits,
                down_stats.max_message_bits,
            ),
            tree_depth=tree_depth(self.levels),
            all_nodes_learned_verdict=all(
                verdict == int(accepted) for verdict in verdicts
            ),
        )

    @property
    def cache_token(self) -> dict:
        # The verdict is topology-invariant (convergecast computes the
        # exact alarm sum on any connected graph), so the token carries
        # only the statistical configuration — curves are shared across
        # topologies but can never collide with protocol-kernel curves.
        return {
            **self._token_header("network"),
            "n": self.n,
            "epsilon": self.epsilon,
            "k": self.k,
            "q": self.q,
            "comparison_graph": self.comparison_graph.cache_token,
            "reject_threshold": self.reject_threshold,
            "player_statistic_threshold": self.player_statistic_threshold,
        }

    @property
    def elements_per_trial(self) -> int:
        return self.k * self.q

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Single-tile kernel: vectorised alarm counts vs the threshold.

        Statistically identical to running :meth:`run` per trial — the
        convergecast computes the exact alarm sum, so only the sum enters
        the verdict.
        """
        generator = ensure_rng(rng)
        samples = distribution.sample_matrix(trials * self.k, self.q, generator)
        accept_bits = np.asarray(
            self._player.respond_batch(samples, generator), dtype=np.int64
        )
        alarm_counts = (1 - accept_bits).reshape(trials, self.k).sum(axis=1)
        return alarm_counts < self.reject_threshold

    def __repr__(self) -> str:
        return (
            f"NetworkUniformityTester(k={self.k}, n={self.n}, q={self.q}, "
            f"depth={tree_depth(self.levels)})"
        )
