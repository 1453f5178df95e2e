"""Discrete-distribution substrate.

Everything the distributed testers consume lives here:

* :mod:`repro.distributions.discrete` — the :class:`DiscreteDistribution`
  value type (validated pmf vector + vectorised sampling).
* :mod:`repro.distributions.distances` — ℓ1/ℓ2/TV/KL/χ² metrics.
* :mod:`repro.distributions.families` — the paper's hard instance family
  ν_z (Section 3) on the paired boolean-cube domain.
* :mod:`repro.distributions.generators` — natural far-from-uniform workload
  generators (Zipf, two-level, sparse, Dirichlet, ...).
* :mod:`repro.distributions.sampling` — metered per-player sample oracles.
"""

from .discrete import DiscreteDistribution, uniform, point_mass
from .distances import (
    l1_distance,
    l2_distance,
    total_variation,
    kl_divergence,
    chi_squared_divergence,
    distance_to_uniform,
    is_epsilon_far_from_uniform,
)
from .families import PaninskiFamily, perturbed_pair_distribution
from .generators import (
    zipf_distribution,
    two_level_distribution,
    sparse_support_distribution,
    dirichlet_distribution,
    bimodal_distribution,
    far_from_uniform_suite,
)
from .sampling import SampleOracle, oracle_for

__all__ = [
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
    "dirichlet_distribution",
    "bimodal_distribution",
    "far_from_uniform_suite",
    "SampleOracle",
    "oracle_for",
]
