"""Reference Monte-Carlo oracles for differential testing.

The engine's kernel substrate (:mod:`repro.engine.kernels`) is the one
production path for acceptance estimation, and every production
``accept_block`` is vectorized across its trial axis; these deliberately
naive loops exist so tests can pin both against implementations too
simple to be wrong.  Production code must never estimate this way (lint
rules RL302 "engine bypass" and RL303 "per-trial accept_block loop"
forbid it under ``src``).

Three flavours live here:

* :func:`reference_acceptance_rate` — the plainest possible sequential
  estimate, agreeing with the engine in distribution only;
* the ``*_reference_accept_block`` family — per-trial transcriptions of
  the pre-vectorization kernels.  Where the vectorized kernel kept the
  exact draw order (:class:`~repro.core.testers.SimulationTester`,
  :class:`~repro.core.baselines.EmpiricalDistanceTester`) the oracle is
  bit-identical under a same-seeded generator; elsewhere it matches in
  law and differential tests compare acceptance rates statistically;
* :func:`collision_counts_reference` — the original per-column loop
  behind :func:`~repro.core.players.collision_counts`.

:class:`BernoulliKernel` is the ground truth of the engine's own tests: a
kernel whose acceptance probability is known exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.closeness import closeness_statistic
from repro.core.players import _validate_sample_matrix, collision_counts
from repro.distributions.discrete import DiscreteDistribution
from repro.engine import KERNEL_SCHEMA_VERSION
from repro.exceptions import InvalidParameterError
from repro.rng import RngLike, ensure_rng


class BernoulliKernel:
    """A calibrated fixture kernel with *known* acceptance probability.

    Accepts each trial independently with probability ``probability``,
    ignoring the distribution argument.  This is the canonical
    calibration instrument for the engine's sequential tests: the true
    rate is exact, so SPRT verdicts and error rates can be checked
    against ground truth.
    """

    def __init__(self, probability: float):
        if not 0.0 <= probability <= 1.0:
            raise InvalidParameterError(
                f"probability must be in [0,1], got {probability}"
            )
        self.probability = float(probability)

    @property
    def cache_token(self) -> dict:
        return {
            "schema": KERNEL_SCHEMA_VERSION,
            "kind": "bernoulli",
            "class": "BernoulliKernel",
            "kernel_version": 1,
            "probability": self.probability,
        }

    @property
    def elements_per_trial(self) -> int:
        return 1

    def accept_block(self, distribution, trials: int, rng: RngLike = None) -> np.ndarray:
        generator = ensure_rng(rng)
        return generator.random(trials) < self.probability


def graph_statistic_reference(graph, samples, mode: str = "edges") -> np.ndarray:
    """Per-row, per-edge transcription of
    :func:`~repro.core.graphs.graph_statistic_block`.

    Walks every (row, edge) pair in Python — no sorting, no fast paths,
    no reduceat — so the vectorised statistic (and its complete-graph
    shortcuts through ``collision_counts``/``unique_counts``) can be
    pinned against an implementation too simple to be wrong.
    """
    matrix = np.asarray(samples, dtype=np.int64)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    edges = list(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
    out = np.zeros(matrix.shape[0], dtype=np.int64)
    for row in range(matrix.shape[0]):
        values = matrix[row]
        if mode == "edges":
            out[row] = sum(1 for u, v in edges if values[u] == values[v])
        else:
            covered = set()
            for u, v in edges:
                if values[u] == values[v]:
                    covered.add(v)
            out[row] = graph.num_vertices - len(covered)
    return out


def comparison_graph_reference_accept_block(
    tester: object,
    distribution: DiscreteDistribution,
    trials: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Per-trial transcription of
    :class:`~repro.core.graphs.ComparisonGraphTester.accept_block`
    (hence of the rebuilt ``CentralizedCollisionTester`` and
    ``UniqueElementsTester`` kernels).

    Same single upfront sample draw as the vectorised kernel, statistic
    evaluated edge by edge — bit-identical under a same-seeded generator.
    """
    generator = ensure_rng(rng)
    samples = distribution.sample_matrix(trials, tester.q, generator)
    accepts = np.empty(trials, dtype=bool)
    for trial in range(trials):
        statistic = int(
            graph_statistic_reference(
                tester.graph, samples[trial], tester.mode
            )[0]
        )
        if tester.mode == "distinct":
            accepts[trial] = statistic >= tester.statistic_threshold
        else:
            accepts[trial] = statistic <= tester.statistic_threshold
    return accepts


def network_graph_reference_accept_block(
    tester: object,
    distribution: DiscreteDistribution,
    trials: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Per-trial, per-node transcription of the rebuilt
    :class:`~repro.network.tester.NetworkUniformityTester` kernel.

    Same single upfront (trials·k × q) sample draw, each node's
    comparison statistic evaluated edge by edge, alarms counted in
    Python — bit-identical under a same-seeded generator.
    """
    generator = ensure_rng(rng)
    samples = distribution.sample_matrix(trials * tester.k, tester.q, generator)
    comparison_graph = tester.comparison_graph
    threshold = tester.player_statistic_threshold
    accepts = np.empty(trials, dtype=bool)
    for trial in range(trials):
        alarms = 0
        for node in range(tester.k):
            statistic = int(
                graph_statistic_reference(
                    comparison_graph, samples[trial * tester.k + node]
                )[0]
            )
            alarms += int(statistic > threshold)
        accepts[trial] = alarms < tester.reject_threshold
    return accepts


def reference_acceptance_rate(
    tester: object,
    distribution: DiscreteDistribution,
    trials: int,
    rng: RngLike = None,
) -> float:
    """P[accept] by the plainest possible loop over single executions.

    Sequentially consumes one generator across ``test`` calls — exactly
    the draw pattern the engine's block-seeded path replaces — so the two
    agree in distribution, not bit-for-bit.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    generator = ensure_rng(rng)
    hits = 0
    for _ in range(trials):
        hits += bool(tester.test(distribution, generator))
    return hits / trials


def pairwise_hash_reference_accept_block(
    tester: object,
    distribution: DiscreteDistribution,
    trials: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Per-trial transcription of the pre-vectorization
    :class:`~repro.core.testers.PairwiseHashTester` kernel.

    Hashes are drawn with ``generator.permutation`` per group per trial,
    so the stream differs from the vectorized argsort construction —
    compare acceptance rates, not bits.
    """
    generator = ensure_rng(rng)
    accepts = np.empty(trials, dtype=bool)
    group_size = tester.group_size
    used_players = group_size * tester.num_groups
    pairs_per_group = group_size * (group_size - 1) / 2.0
    hash_fraction = 1.0 - 1.0 / tester.num_buckets
    signal = hash_fraction * tester.epsilon**2 / tester.n
    cutoff = 0.5 * tester.num_groups * pairs_per_group * signal
    samples = distribution.sample_matrix(trials, used_players, generator)
    pattern = np.arange(tester.n) % tester.num_buckets
    for trial in range(trials):
        hashes = np.stack(
            [
                pattern[generator.permutation(tester.n)]
                for _ in range(tester.num_groups)
            ]
        )
        grouped = samples[trial].reshape(tester.num_groups, group_size)
        messages = np.take_along_axis(hashes, grouped, axis=1)
        statistic = 0.0
        for g in range(tester.num_groups):
            bucket_counts = np.bincount(messages[g], minlength=tester.num_buckets)
            collisions = float((bucket_counts * (bucket_counts - 1)).sum() / 2.0)
            bucket_masses = (
                np.bincount(hashes[g], minlength=tester.num_buckets) / tester.n
            )
            statistic += collisions - pairs_per_group * float(
                (bucket_masses**2).sum()
            )
        accepts[trial] = statistic <= cutoff
    return accepts


def simulation_reference_accept_block(
    tester: object,
    distribution: DiscreteDistribution,
    trials: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Per-trial transcription of the pre-vectorization
    :class:`~repro.core.testers.SimulationTester` kernel.

    Draw-for-draw identical to the vectorized kernel (sample matrix then
    guesses, post-processing RNG-free), so a same-seeded comparison must
    be bit-identical.
    """
    generator = ensure_rng(rng)
    accepts = np.empty(trials, dtype=bool)
    samples = distribution.sample_matrix(trials, tester.k, generator)
    guesses = generator.integers(0, tester.n, size=(trials, tester.k))
    hits = samples == guesses
    for trial in range(trials):
        collected = guesses[trial][hits[trial]]
        m = collected.size
        if m < 2:
            accepts[trial] = True  # not enough evidence to reject
            continue
        count = int(collision_counts(collected[np.newaxis, :])[0])
        pairs = m * (m - 1) / 2.0
        threshold = pairs * (1.0 + tester.epsilon**2 / 2.0) / tester.n
        accepts[trial] = count <= threshold
    return accepts


def empirical_distance_reference_accept_block(
    tester: object,
    distribution: DiscreteDistribution,
    trials: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Per-trial transcription of the pre-vectorization
    :class:`~repro.core.baselines.EmpiricalDistanceTester` kernel.

    Same single upfront sample draw as the offset-bincount version —
    bit-identical under a same-seeded generator.
    """
    generator = ensure_rng(rng)
    samples = distribution.sample_matrix(trials, tester.q, generator)
    statistics = np.empty(trials, dtype=np.float64)
    flat = 1.0 / tester.n
    for index in range(trials):
        histogram = np.bincount(samples[index], minlength=tester.n) / tester.q
        statistics[index] = float(np.abs(histogram - flat).sum())
    return statistics <= tester.distance_threshold


def _independence_counts(
    tester: object, joint: DiscreteDistribution, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Poissonized counts for the joint side and the synthesized product
    side: pair the x-coordinate of one joint sample with the y-coordinate
    of another."""
    joint_count = int(rng.poisson(tester.q))
    joint_samples = joint.sample(joint_count, rng)
    joint_counts = np.bincount(joint_samples, minlength=tester.n)

    product_count = int(rng.poisson(tester.q))
    source_x = joint.sample(product_count, rng)
    source_y = joint.sample(product_count, rng)
    x_part = source_x // tester.n2
    y_part = source_y % tester.n2
    product_counts = np.bincount(x_part * tester.n2 + y_part, minlength=tester.n)
    return joint_counts, product_counts


def independence_reference_accept_block(
    tester: object,
    joint: DiscreteDistribution,
    trials: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Per-trial transcription of the pre-vectorization
    :class:`~repro.core.independence.IndependenceTester` kernel.

    Uses the sequential Poissonized pairing construction
    (:func:`_independence_counts`): equal in law to the vectorized
    per-cell Poisson draws, different stream — compare acceptance rates,
    not bits.
    """
    generator = ensure_rng(rng)
    accepts = np.empty(trials, dtype=bool)
    for index in range(trials):
        joint_counts, product_counts = _independence_counts(tester, joint, generator)
        statistic = closeness_statistic(joint_counts, product_counts)
        accepts[index] = statistic <= tester.threshold
    return accepts


def learning_reference_accept_block(
    kernel: object,
    distribution: DiscreteDistribution,
    trials: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Per-trial transcription of the pre-vectorization
    :class:`~repro.core.learning.LearningSuccessKernel`: one full
    ``learn()`` run per trial on a shared sequential generator.

    Equal in per-run law to the batched ``l1_errors_block`` path,
    different stream — compare success rates, not bits.
    """
    generator = ensure_rng(rng)
    accepts = np.empty(trials, dtype=bool)
    for index in range(trials):
        outcome = kernel.learner.learn(distribution, generator)
        accepts[index] = outcome.l1_error <= kernel.delta
    return accepts


def local_model_reference_accept_block(
    tester: object,
    distribution: DiscreteDistribution,
    trials: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Per-trial transcription of the pre-vectorization
    :class:`~repro.network.local_model.LocalUniformityTester` kernel:
    every player samples and responds once per trial, sequentially.

    Equal in per-trial law to the per-player batched kernel, different
    stream — compare acceptance rates, not bits.
    """
    generator = ensure_rng(rng)
    protocol = tester._statistical.protocol
    threshold = tester._alarm_threshold
    accepts = np.empty(trials, dtype=bool)
    for index in range(trials):
        total = 0
        for player in protocol.players:
            samples = distribution.sample_matrix(1, player.num_samples, generator)
            bit = int(player.strategy.respond_batch(samples, generator)[0])
            total += 1 - bit
        accepts[index] = total < threshold
    return accepts


def collision_counts_reference(samples: np.ndarray) -> np.ndarray:
    """Reference oracle for :func:`~repro.core.players.collision_counts`.

    The original implementation: walks the sorted rows column by column
    accumulating the position within each run.  Semantically identical
    to the vectorised count, with quadratic Python overhead in q.
    """
    matrix = _validate_sample_matrix(samples)
    rows, q = matrix.shape
    if q < 2:
        return np.zeros(rows, dtype=np.int64)
    ordered = np.sort(matrix, axis=1)
    equal_prev = ordered[:, 1:] == ordered[:, :-1]
    # run_position[i] = number of immediately-preceding equal samples in the
    # current run; summing it per row gives Σ C(run_len, 2) exactly.
    run_position = np.zeros((rows, q - 1), dtype=np.int64)
    previous = np.zeros(rows, dtype=np.int64)
    for column in range(q - 1):
        previous = (previous + 1) * equal_prev[:, column]
        run_position[:, column] = previous
    return run_position.sum(axis=1)


def unique_counts_reference(samples: np.ndarray) -> np.ndarray:
    """Reference oracle for :func:`~repro.core.players.unique_counts`:
    the size of each row's Python ``set``."""
    matrix = _validate_sample_matrix(samples)
    return np.array([len(set(row.tolist())) for row in matrix], dtype=np.int64)
