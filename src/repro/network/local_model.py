"""The LOCAL-model view: sampling while the network aggregates (§6.2).

Section 6.2 recounts how [7] reduced LOCAL-model uniformity testing to the
simultaneous case, arriving at the asymmetric-cost model: the network runs
for wall-clock time τ, node i samples at its own rate ``T_i`` and collects
``q_i = T_i · τ`` samples; the optimal τ is ``Θ(√n/(ε²·‖T‖₂))`` — unless
the network's *diameter* dominates, because the verdict still has to
travel.

:class:`LocalUniformityTester` composes the two substrates accordingly:

* the statistical side is exactly :class:`~repro.core.tradeoffs.
  AsymmetricRateTester` (per-rate calibrated alarm bits, count referee);
* the communication side is the spanning-tree aggregation of
  :mod:`repro.network` — so the end-to-end wall-clock time reported is
  ``max(τ_sampling, …) + Θ(depth)`` rounds, making the paper's
  "τ vs diameter" trade-off measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..core.tradeoffs import AsymmetricRateTester, optimal_time_budget
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
class LocalRunReport:
    """One LOCAL-model execution: verdict plus the time decomposition."""

    accepted: bool
    alarm_count: int
    sampling_time: float
    aggregation_rounds: int
    total_time: float
    samples_per_node: list


class LocalUniformityTester(KernelBase):
    """Uniformity testing in the LOCAL/asymmetric-rate network model.

    Parameters
    ----------
    graph:
        Connected topology; node count fixes k and node ``root`` collects
        the verdict.
    n, epsilon:
        The testing problem.
    rates:
        Per-node sampling rates T_i (samples per round).
    tau:
        Sampling time; defaults to the [7] optimum
        ``Θ(√n/(ε²·‖T‖₂))``.
    """

    #: v2: accept_block batches draws per player across all trials
    #: (same per-trial law, different stream layout).
    kernel_version = 2

    def __init__(
        self,
        graph: nx.Graph,
        n: int,
        epsilon: float,
        rates: Sequence[float],
        tau: Optional[float] = None,
        root: int = 0,
        calibration_rng: RngLike = 0,
    ):
        validate_topology(graph)
        rate_arr = np.asarray(rates, dtype=np.float64)
        if rate_arr.size != graph.number_of_nodes():
            raise InvalidParameterError(
                f"need one rate per node: {graph.number_of_nodes()} nodes, "
                f"{rate_arr.size} rates"
            )
        self.graph = graph
        self.k = graph.number_of_nodes()
        self.tau = float(tau) if tau is not None else optimal_time_budget(
            n, epsilon, rate_arr
        )
        self._statistical = AsymmetricRateTester(
            n, epsilon, rate_arr, self.tau, calibration_rng=calibration_rng
        )
        self.n, self.epsilon = n, epsilon
        self.parents, self.levels, self._bfs_stats = build_bfs_tree(graph, root)

    @property
    def sample_counts(self) -> list:
        """Per-node sample counts q_i = round(T_i · τ)."""
        return list(self._statistical.sample_counts)

    def run(
        self, distribution: DiscreteDistribution, rng: RngLike = None
    ) -> LocalRunReport:
        """One LOCAL-model execution with its time decomposition."""
        generator = ensure_rng(rng)
        # Per-node alarm bits via the calibrated asymmetric protocol.
        protocol = self._statistical.protocol
        alarms = []
        for player in protocol.players:
            samples = distribution.sample_matrix(1, player.num_samples, generator)
            bit = int(player.strategy.respond_batch(samples, generator)[0])
            alarms.append(1 - bit)
        threshold = self._alarm_threshold
        total, up_stats = convergecast_sum(
            self.graph, self.parents, alarms, self.levels
        )
        accepted = total < threshold
        _, down_stats = broadcast_value(
            self.graph, self.parents, int(accepted), self.levels
        )
        aggregation_rounds = (
            self._bfs_stats.rounds + up_stats.rounds + down_stats.rounds
        )
        return LocalRunReport(
            accepted=accepted,
            alarm_count=total,
            sampling_time=self.tau,
            aggregation_rounds=aggregation_rounds,
            total_time=self.tau + aggregation_rounds,
            samples_per_node=self.sample_counts,
        )

    @property
    def _alarm_threshold(self) -> float:
        """Referee cut at the midpoint of expected uniform/far alarm counts."""
        return (
            self._statistical.expected_uniform_alarms
            + self._statistical.expected_far_alarms
        ) / 2.0

    @property
    def cache_token(self) -> dict:
        # Topology-invariant (the aggregation computes the exact alarm
        # sum); the token pins the asymmetric-rate calibration instead.
        return {
            **self._token_header("local"),
            "n": self.n,
            "epsilon": self.epsilon,
            "tau": self.tau,
            "sample_counts": [int(q) for q in self.sample_counts],
            "alarm_threshold": self._alarm_threshold,
        }

    @property
    def elements_per_trial(self) -> int:
        return max(1, int(sum(self.sample_counts)))

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Single-tile kernel: every trial's run of each player, batched.

        Each player draws all its trials' sample rows in one matrix and
        answers them in one ``respond_batch`` call — same per-trial law
        as :meth:`run`, with the alarm sum accumulated across players.
        """
        generator = ensure_rng(rng)
        protocol = self._statistical.protocol
        alarm_totals = np.zeros(trials, dtype=np.int64)
        for player in protocol.players:
            samples = distribution.sample_matrix(
                trials, player.num_samples, generator
            )
            bits = np.asarray(
                player.strategy.respond_batch(samples, generator), dtype=np.int64
            )
            alarm_totals += 1 - bits
        return alarm_totals < self._alarm_threshold

    def time_decomposition(self) -> dict:
        """The §6.2 trade-off: sampling time vs aggregation rounds."""
        depth = tree_depth(self.levels)
        return {
            "sampling_tau": self.tau,
            "tree_depth": depth,
            "aggregation_bound": self.k + 2 * (depth + 2),
            "diameter_dominated": depth > self.tau,
        }
