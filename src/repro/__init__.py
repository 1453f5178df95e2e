"""repro — a reproduction of *Can Distributed Uniformity Testing Be Local?*

(Meir, Minzer, Oshman; PODC 2019.)

The library simulates the distributed distribution-testing model the paper
analyses — k players × q i.i.d. samples → one-bit messages → a referee
decision rule — and makes the paper's lower-bound machinery executable:

* :mod:`repro.distributions` — discrete distributions, distances, the
  hard instance family ν_z of Section 3, workload generators, oracles.
* :mod:`repro.fourier` — boolean-cube Fourier analysis, the KKL level
  inequality, and the evenly-covered-multiset combinatorics.
* :mod:`repro.core` — decision rules, player strategies, the protocol
  simulator, and complete testers (centralized, threshold-rule, AND-rule,
  single-sample) plus learning protocols and the asymmetric-rate model.
* :mod:`repro.lowerbounds` — theorem formulas, exact lemma verification,
  and the Section 6 information-theoretic argument.
* :mod:`repro.stats` — Monte Carlo estimation, empirical complexity
  search, and power-law fitting.
* :mod:`repro.experiments` — the E1–E21 experiment registry reproducing
  every theorem-level claim (see DESIGN.md and EXPERIMENTS.md).

``import repro`` imports none of these: each name below is imported from
its submodule on first access, so a run pays only for what it uses.

Quickstart
----------
>>> import repro
>>> tester = repro.ThresholdRuleTester(n=256, epsilon=0.5, k=16)
>>> tester.test(repro.uniform(256), rng=0)
True
"""

from ._lazy import lazy_exports

#: Submodule → the public names it defines, re-exported here on first use.
_EXPORTS = {
    "_version": ("__version__",),
    "exceptions": (
        "ReproError",
        "InvalidDistributionError",
        "InvalidParameterError",
        "DimensionMismatchError",
        "ProtocolError",
        "SearchDivergedError",
    ),
    "rng": ("ensure_rng", "spawn_streams"),
    "distributions": (
        "DiscreteDistribution",
        "uniform",
        "point_mass",
        "l1_distance",
        "l2_distance",
        "total_variation",
        "kl_divergence",
        "chi_squared_divergence",
        "distance_to_uniform",
        "is_epsilon_far_from_uniform",
        "PaninskiFamily",
        "perturbed_pair_distribution",
        "zipf_distribution",
        "two_level_distribution",
        "sparse_support_distribution",
        "bimodal_distribution",
        "far_from_uniform_suite",
        "SampleOracle",
        "oracle_for",
    ),
    "fourier": ("BooleanFunction", "walsh_hadamard_transform"),
    "core": (
        "AmplifiedTester",
        "AndRule",
        "OrRule",
        "ThresholdRule",
        "MajorityRule",
        "TruthTableRule",
        "WeightedCountRule",
        "SimultaneousProtocol",
        "Player",
        "UniformityTester",
        "ComparisonGraph",
        "ComparisonGraphTester",
        "GraphStatisticPlayer",
        "complete_graph",
        "star_graph",
        "matching_graph",
        "cycle_graph",
        "bipartite_graph",
        "random_regular_graph",
        "build_family_graph",
        "graph_statistic_block",
        "graph_tester_factory",
        "worst_case_statistic_proxy",
        "CentralizedCollisionTester",
        "ThresholdRuleTester",
        "AndRuleTester",
        "PairwiseHashTester",
        "SimulationTester",
        "ClosenessTester",
        "IndependenceTester",
        "correlated_joint",
        "joint_from_matrix",
        "MultibitThresholdTester",
        "UniqueElementsTester",
        "EmpiricalDistanceTester",
        "HitCountingLearner",
        "FrequencyDitheringLearner",
        "AsymmetricRateTester",
    ),
    "reductions": ("IdentityTester", "IdentityTestingReduction"),
    "network": ("NetworkUniformityTester",),
    "lowerbounds": (
        "theorem_1_1_q_lower",
        "theorem_1_2_q_lower",
        "theorem_1_3_q_lower",
        "theorem_1_4_k_lower",
        "centralized_q_lower",
    ),
    "stats": (
        "empirical_sample_complexity",
        "empirical_player_complexity",
        "fit_power_law",
        "power_curve",
    ),
    "engine": (
        "AcceptanceCache",
        "EngineConfig",
        "EngineMetrics",
        "ProcessPoolBackend",
        "SerialBackend",
        "configure_engine",
        "engine_context",
        "get_engine",
    ),
}

#: Submodules that resolve as attributes of a bare ``import repro``.
_SUBMODULES = (
    "core",
    "distributions",
    "engine",
    "exceptions",
    "experiments",
    "fourier",
    "lowerbounds",
    "network",
    "reductions",
    "rng",
    "stats",
)

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, _SUBMODULES)
