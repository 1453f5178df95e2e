"""Complete uniformity testers.

Each tester distinguishes "μ = U_n" from "μ is ε-far from U_n in ℓ1" and
reports the resources the paper's lower bounds count (players k, samples
per player q, message bits).  The implementations follow the canonical
collision-statistic constructions whose optimality the paper establishes:

* :class:`CentralizedCollisionTester` — the classical Θ(√n/ε²) tester
  ([16], Paninski; [10, 13], Goldreich–Ron).
* :class:`ThresholdRuleTester` — the threshold-rule tester of [7]
  (Fischer–Meir–Oshman): each player sends the "did I see a collision?"
  bit; the referee counts.  Theorem 1.1 shows its q = Θ(√(n/k)/ε²) is
  optimal among *all* decision rules for k = O(n).
* :class:`AndRuleTester` — the local-decision tester of [7]: player bits
  are calibrated so false alarms are rarer than 1/(3k), and the referee
  rejects iff anyone rejects.  Theorem 1.2 shows the resulting sample
  blow-up is inherent.
* :class:`PairwiseHashTester` — a single-sample (q = 1), ℓ-bit-message
  protocol in the spirit of [1] (Acharya–Canonne–Tyagi): paired players
  share a public random hash and the referee measures hash agreement.
* :class:`SimulationTester` — single-sample rejection-sampling simulation:
  public coins give each player a guess, hits deliver exact samples from μ
  to the referee, who runs the centralized tester.

All testers expose ``acceptance_probability`` (vectorised Monte Carlo) and
a uniform ``resources`` record for the experiment harness.

Since the comparison-graph refactor the coincidence statistics live in
:mod:`repro.core.graphs`: the centralized tester is the complete-graph
instantiation of :class:`~repro.core.graphs.ComparisonGraphTester`, and
the threshold/AND-rule calibrations run through the graph layer's
moment/calibration API (bit-identically to the helpers they replaced).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

import numpy as np

from ..distributions.discrete import DiscreteDistribution
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng
from .base import TesterResources, UniformityTester
from .graphs import (
    ComparisonGraphTester,
    GraphStatisticPlayer,
    complete_graph,
    graph_statistic_block,
    midpoint_threshold,
    statistic_alarm_probabilities,
    calibrate_dithered_statistic,
    calibrate_statistic_threshold,
)
from .players import DitheredCollisionBitPlayer
from .protocol import ProtocolTester, SimultaneousProtocol
from .referees import AndRule, ThresholdRule

__all__ = [
    "TesterResources",
    "UniformityTester",
    "AmplifiedTester",
    "CentralizedCollisionTester",
    "ThresholdRuleTester",
    "AndRuleTester",
    "PairwiseHashTester",
    "SimulationTester",
    "default_centralized_q",
    "default_distributed_q",
    "max_alarm_rate_for_threshold",
]


def default_centralized_q(n: int, epsilon: float, multiplier: float = 3.0) -> int:
    """The classical sample budget ``multiplier · √n / ε²`` (at least 2)."""
    return max(2, int(math.ceil(multiplier * math.sqrt(n) / epsilon**2)))


def default_distributed_q(
    n: int, k: int, epsilon: float, multiplier: float = 3.0
) -> int:
    """The optimal-rule budget ``multiplier · √(n/k) / ε²`` (at least 2)."""
    return max(2, int(math.ceil(multiplier * math.sqrt(n / k) / epsilon**2)))


class AmplifiedTester(UniformityTester):
    """Majority vote over R independent runs of a base tester.

    Standard confidence amplification: a base tester with two-sided error
    1/3 amplified over R repetitions errs with probability
    ``exp(-Ω(R))`` (Chernoff), at R times the sample cost.  This is the
    "repetition vs larger q" trade-off ablated in the E1 benchmark notes.
    """

    #: v2: the token nests the base's own cache_token, so bases that
    #: differ only in non-primitive state (a comparison graph) no longer
    #: share cached curves.
    kernel_version = 2

    def __init__(self, base: UniformityTester, repetitions: int):
        super().__init__(base.n, base.epsilon)
        if repetitions < 1 or repetitions % 2 == 0:
            raise InvalidParameterError(
                f"repetitions must be a positive odd integer, got {repetitions}"
            )
        self.base = base
        self.repetitions = int(repetitions)

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Single-tile kernel: R base-kernel votes on one shared generator."""
        generator = ensure_rng(rng)
        votes = np.zeros(trials, dtype=np.int64)
        for _ in range(self.repetitions):
            votes += np.asarray(
                self.base.accept_block(distribution, trials, generator),
                dtype=np.int64,
            )
        return votes * 2 > self.repetitions

    @property
    def relabel_invariant(self) -> bool:
        return self.base.relabel_invariant

    @property
    def cache_token(self) -> Dict[str, Any]:
        return {**super().cache_token, "base": self.base.cache_token}

    @property
    def resources(self) -> TesterResources:
        base = self.base.resources
        return TesterResources(
            num_players=base.num_players,
            samples_per_player=base.samples_per_player * self.repetitions,
            message_bits=base.message_bits * self.repetitions,
        )


class CentralizedCollisionTester(ComparisonGraphTester):
    """The classical collision-based uniformity tester (q = Θ(√n/ε²)).

    The complete-graph instantiation of
    :class:`~repro.core.graphs.ComparisonGraphTester`: draws q samples,
    counts coincident pairs ``K = Y_{K_q}``, and accepts iff K is below
    the midpoint between the uniform expectation ``C(q,2)/n`` and the
    smallest possible ε-far expectation ``C(q,2)(1+ε²)/n`` (an ε-far
    distribution has ``||μ||₂² ≥ (1+ε²)/n``).
    """

    #: v2: rebuilt on the comparison-graph layer.  Draw order, statistic
    #: and threshold arithmetic are bit-identical to v1; the bump marks
    #: the move from fingerprint-derived to native graph cache tokens.
    kernel_version = 2

    def __init__(self, n: int, epsilon: float, q: Optional[int] = None):
        # Validate (n, epsilon) before they feed the default-q formula.
        UniformityTester.__init__(self, n, epsilon)
        q = q if q is not None else default_centralized_q(n, epsilon)
        if q < 2:
            raise InvalidParameterError(f"q must be >= 2, got {q}")
        super().__init__(n, epsilon, complete_graph(q), mode="edges")


def max_alarm_rate_for_threshold(
    k: int, reject_threshold: int, completeness_error: float = 0.2
) -> float:
    """Largest per-player alarm probability p keeping the network complete.

    Solves ``P[Binomial(k, p) >= T] <= completeness_error`` for p by binary
    search on the exact binomial survival function — the calibration the
    forced-T tester needs so a uniform input is accepted w.p. >= 2/3.
    """
    if k < 1 or reject_threshold < 1:
        raise InvalidParameterError("k and reject_threshold must be >= 1")
    if reject_threshold > k:
        return 1.0
    from scipy.stats import binom

    low, high = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (low + high)
        if binom.sf(reject_threshold - 1, k, mid) <= completeness_error:
            low = mid
        else:
            high = mid
    return low


class ThresholdRuleTester(ProtocolTester):
    """The threshold-rule tester of [7]: optimal for any decision rule.

    Every player cuts its collision count at the midpoint between the
    uniform expectation ``C(q,2)/n`` and the minimum ε-far expectation
    ``C(q,2)(1+ε²)/n`` and sends the resulting alarm bit; the referee
    rejects iff at least T players alarm.  T is calibrated at the midpoint
    ``k(p₀+p₁)/2`` of the alarm probabilities under U_n and under the
    worst-case ε-far proxy (exact for the whole hard family ν_z — see
    :func:`~repro.core.graphs.worst_case_statistic_proxy`).

    With ``forced_T`` the referee threshold is fixed (Theorem 1.3's
    setting) and instead the *player* bit is re-calibrated to be biased
    enough that fewer than T false alarms occur under U_n.
    """

    def __init__(
        self,
        n: int,
        epsilon: float,
        k: int,
        q: Optional[int] = None,
        forced_T: Optional[int] = None,
        calibration_rng: RngLike = 0,
        calibration_trials: int = 3000,
    ):
        super().__init__(n, epsilon)
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.q = q if q is not None else default_distributed_q(n, k, epsilon)
        if self.q < 2:
            raise InvalidParameterError(f"q must be >= 2, got {self.q}")

        player_graph = complete_graph(self.q)
        if forced_T is None:
            threshold = midpoint_threshold(player_graph, self.n, self.epsilon)
            p_uniform, p_far = statistic_alarm_probabilities(
                player_graph, n, epsilon, threshold, calibration_trials, calibration_rng
            )
            midpoint = self.k * 0.5 * (p_uniform + p_far)
            self.reject_threshold = min(self.k, max(1, int(math.ceil(midpoint))))
            self.player_collision_threshold = threshold
            self.player_reject_probability = p_uniform
        else:
            if forced_T < 1:
                raise InvalidParameterError(f"forced_T must be >= 1, got {forced_T}")
            self.reject_threshold = int(forced_T)
            # Bias the player bit so that P[#false alarms >= T | U_n] <= 1/3
            # exactly (binomial calibration; the cruder Markov budget T/(3k)
            # grows increasingly wasteful as T rises).  The dithered player
            # hits the target alarm rate exactly despite the integer-valued
            # collision statistic.
            target = max_alarm_rate_for_threshold(self.k, self.reject_threshold)
            threshold, gamma, achieved = calibrate_dithered_statistic(
                player_graph, n, target, trials=calibration_trials, rng=calibration_rng
            )
            self.player_collision_threshold = float(threshold)
            self.player_reject_probability = achieved
            player = DitheredCollisionBitPlayer(threshold, gamma)
            referee = ThresholdRule(self.reject_threshold, num_players=self.k)
            self._protocol = SimultaneousProtocol.homogeneous(
                player, self.k, self.q, referee
            )
            return

        player = GraphStatisticPlayer(
            player_graph, self.player_collision_threshold
        )
        referee = ThresholdRule(self.reject_threshold, num_players=self.k)
        self._protocol = SimultaneousProtocol.homogeneous(
            player, self.k, self.q, referee
        )

    @property
    def resources(self) -> TesterResources:
        return TesterResources(
            num_players=self.k, samples_per_player=self.q, message_bits=1
        )


class AndRuleTester(ProtocolTester):
    """The AND-rule (local decision) tester of [7].

    Each player's bit is calibrated so its false-alarm probability under
    U_n is at most ``1/(3k)`` — by the union bound the network accepts a
    uniform input with probability ≥ 2/3 — and the referee rejects iff
    *any* player rejects.  Theorem 1.2 proves the price: unless k is
    exponential in 1/ε, q must stay near the centralized √n/ε².
    """

    def __init__(
        self,
        n: int,
        epsilon: float,
        k: int,
        q: Optional[int] = None,
        calibration_rng: RngLike = 0,
        calibration_trials: int = 4000,
    ):
        super().__init__(n, epsilon)
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.q = q if q is not None else default_centralized_q(n, epsilon)
        if self.q < 2:
            raise InvalidParameterError(f"q must be >= 2, got {self.q}")
        threshold, estimate = calibrate_statistic_threshold(
            complete_graph(self.q),
            n,
            1.0 / (3.0 * self.k),
            trials=calibration_trials,
            rng=calibration_rng,
        )
        self.player_collision_threshold = threshold
        self.player_reject_probability = estimate
        player = GraphStatisticPlayer(complete_graph(self.q), float(threshold))
        self._protocol = SimultaneousProtocol.homogeneous(
            player, self.k, self.q, AndRule(num_players=self.k)
        )

    @property
    def resources(self) -> TesterResources:
        return TesterResources(
            num_players=self.k, samples_per_player=self.q, message_bits=1
        )


class PairwiseHashTester(UniformityTester):
    """Single-sample, ℓ-bit-message tester in the spirit of [1].

    Players are split into G groups; each group shares an independent
    public random *balanced* hash ``h_g : [n] → [2^ℓ]`` (equal-size
    buckets, realised as a random permutation of a fixed bucket pattern),
    each player sends the ℓ-bit hash of its single sample, and the referee
    counts collisions among each group's hashed messages.  Conditioned on
    the public hashes the uniform collision probability of group g is
    *exactly computable* (``Σ_b (|h_g⁻¹(b)|/n)²``), so the summed centred
    statistic has mean zero under U_n, while an ε-far input inflates it by
    ``(1 - 2^{-ℓ}) ε²/n`` per pair in expectation.

    Two noise sources shape the design:

    * **hash-selection noise** — the hash-conditional signal
      ``Σ_b μ(B_b)² − Σ_b u(B_b)²`` fluctuates across hashes.  Balancing
      the buckets removes its dominant term (bucket-size fluctuation ×
      ε-perturbation, Θ(ε/√n) ≫ the Θ(ε²/n) mean); the residual
      perturbation-only χ²-like fluctuation is tamed by averaging over
      ``num_groups = Θ(1/ε²)`` independent hashes;
    * **sampling noise** — beaten by group size, giving player complexity
      k = Θ(n/(2^{ℓ/2} ε³)): linear in n with the 2^{-ℓ/2} message-length
      decay of the optimal protocol of [1] (which also shaves the extra
      1/ε with a more intricate simulation; see DESIGN.md §1).
    """

    def __init__(
        self,
        n: int,
        epsilon: float,
        k: int,
        message_bits: int = 1,
        num_groups: Optional[int] = None,
    ):
        super().__init__(n, epsilon)
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        if message_bits < 1:
            raise InvalidParameterError(
                f"message_bits must be >= 1, got {message_bits}"
            )
        self.k = int(k)
        self.message_bits = int(message_bits)
        self.num_buckets = 2**self.message_bits
        if num_groups is None:
            num_groups = max(4, int(round(8.0 / epsilon**2)))
        if num_groups < 1:
            raise InvalidParameterError(f"num_groups must be >= 1, got {num_groups}")
        # Never let groups shrink below 2 players (no pairs, no signal).
        self.num_groups = min(int(num_groups), self.k // 2)
        self.group_size = self.k // self.num_groups
        # Hash agreement within a group is the complete-graph comparison
        # statistic on the group's messages.
        self._group_graph = complete_graph(self.group_size)

    #: v2: public hashes drawn as one batched argsort of uniform keys
    #: (same law — a uniform random permutation of the balanced bucket
    #: pattern per (trial, group) — but a different draw order).
    #: v3: per-group collision counting routed through the comparison-
    #: graph layer (complete graph on the group's messages); identical
    #: values and draw order, bumped to mark the statistic-path rewrite.
    kernel_version = 3

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Single-tile kernel, vectorised across trials and groups."""
        generator = ensure_rng(rng)
        group_size = self.group_size
        used_players = group_size * self.num_groups
        pairs_per_group = group_size * (group_size - 1) / 2.0
        hash_fraction = 1.0 - 1.0 / self.num_buckets
        signal = hash_fraction * self.epsilon**2 / self.n
        cutoff = 0.5 * self.num_groups * pairs_per_group * signal
        samples = distribution.sample_matrix(trials, used_players, generator)
        # Balanced bucket pattern: as equal as n allows.  Balance removes the
        # dominant hash-selection noise term (bucket-size fluctuation times
        # the ε-perturbation), which otherwise caps soundness (see class doc).
        pattern = np.arange(self.n) % self.num_buckets
        # Fresh public randomness per (trial, group): a uniform random
        # permutation of the bucket pattern, realised as argsort of
        # i.i.d. uniform keys so every row draws at once.
        rows = trials * self.num_groups
        keys = generator.random((rows, self.n))
        hashes = pattern[np.argsort(keys, axis=1, kind="stable")]
        grouped = samples.reshape(rows, group_size)
        messages = np.take_along_axis(hashes, grouped, axis=1)
        # Colliding message pairs per (trial, group) row: the complete-
        # graph comparison statistic on the group's hashed messages.
        collisions = graph_statistic_block(self._group_graph, messages)
        # Every hash is a permutation of the same balanced pattern, so
        # the conditional uniform collision mass Σ_b (|h⁻¹(b)|/n)² is one
        # exactly-computable constant shared by all rows.
        pattern_masses = np.bincount(pattern, minlength=self.num_buckets) / self.n
        expected = pairs_per_group * float((pattern_masses**2).sum())
        statistics = (
            (collisions - expected).reshape(trials, self.num_groups).sum(axis=1)
        )
        return statistics <= cutoff

    @property
    def elements_per_trial(self) -> int:
        # The per-(trial, group) uniform key matrix dominates the
        # footprint; the samples add one row of k.
        return self.num_groups * self.n + self.k

    @property
    def resources(self) -> TesterResources:
        return TesterResources(
            num_players=self.k, samples_per_player=1, message_bits=self.message_bits
        )


class SimulationTester(UniformityTester):
    """Single-sample tester by rejection-sampling simulation.

    Public coins assign each player a uniform guess ``y_j``; the player's
    bit says whether its sample equals the guess.  Conditioned on a hit,
    ``y_j`` is an exact sample from μ, so the referee collects ≈ k/n honest
    samples and runs the centralized collision tester on them.  Player
    complexity is k = O(n^{3/2}/ε²) — simple, correct, and a useful
    contrast with :class:`PairwiseHashTester` in the E8 benchmark.
    """

    def __init__(self, n: int, epsilon: float, k: int):
        super().__init__(n, epsilon)
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        self.k = int(k)

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Single-tile kernel: sample, guess, collect hits, test collisions.

        Bit-identical to the per-trial formulation: the draws happen up
        front in the same order, and the hit post-processing is RNG-free.
        """
        generator = ensure_rng(rng)
        samples = distribution.sample_matrix(trials, self.k, generator)
        guesses = generator.integers(0, self.n, size=(trials, self.k))
        hits = samples == guesses
        collected_counts = hits.sum(axis=1)
        # Collision pairs among each trial's collected values: run-length
        # encode the sorted (trial, value) keys, then Σ C(run, 2) per trial.
        trial_of_hit, column = np.nonzero(hits)
        values = guesses[trial_of_hit, column]
        keys = trial_of_hit * self.n + values
        keys.sort(kind="stable")
        pair_counts = np.zeros(trials, dtype=np.int64)
        if keys.size:
            boundaries = np.flatnonzero(np.diff(keys)) + 1
            starts = np.concatenate(([0], boundaries))
            runs = np.diff(np.concatenate((starts, [keys.size])))
            np.add.at(pair_counts, keys[starts] // self.n, runs * (runs - 1) // 2)
        pairs = collected_counts * (collected_counts - 1) / 2.0
        thresholds = pairs * (1.0 + self.epsilon**2 / 2.0) / self.n
        # Fewer than two collected samples is not enough evidence to reject.
        return (collected_counts < 2) | (pair_counts <= thresholds)

    @property
    def elements_per_trial(self) -> int:
        # One sample plus one public-coin guess per player; the
        # resources fallback (k samples) would under-count the guesses.
        return 2 * self.k

    @property
    def resources(self) -> TesterResources:
        return TesterResources(
            num_players=self.k, samples_per_player=1, message_bits=1
        )
