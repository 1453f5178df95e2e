"""Boolean-cube Fourier analysis (Section 2 of the paper, made executable).

* :mod:`repro.fourier.transform` — :class:`BooleanFunction` and the fast
  Walsh–Hadamard transform.
* :mod:`repro.fourier.characters` — character functions χ_S and utilities.
* :mod:`repro.fourier.analysis` — mean/variance/level weights/influences
  computed from the spectrum (Facts 2.1 and 2.2).
* :mod:`repro.fourier.level_inequalities` — the KKL level inequality
  (Lemma 5.4) as a checkable bound.
* :mod:`repro.fourier.evenly_covered` — the "evenly covered multiset"
  combinatorics driving the lower bounds (Claim 3.1, Proposition 5.2,
  Lemma 5.5).
"""

from .transform import BooleanFunction, walsh_hadamard_transform, inverse_walsh_hadamard_transform
from .characters import character_value, character_vector, subset_size
from .analysis import (
    spectral_mean,
    spectral_variance,
    level_weight,
    weight_up_to_level,
    influences,
    total_influence,
    noise_stability,
)
from .level_inequalities import kkl_level_bound, check_kkl_inequality
from .evenly_covered import (
    double_factorial,
    is_evenly_covered,
    evenly_covered_tuple_count,
    count_evenly_covered_x,
    x_s_upper_bound,
    a_r,
    a_r_expectation_exact,
    a_r_moment_exact,
    lemma_5_5_bound,
)

__all__ = [
    "BooleanFunction",
    "walsh_hadamard_transform",
    "inverse_walsh_hadamard_transform",
    "character_value",
    "character_vector",
    "subset_size",
    "spectral_mean",
    "spectral_variance",
    "level_weight",
    "weight_up_to_level",
    "influences",
    "total_influence",
    "noise_stability",
    "kkl_level_bound",
    "check_kkl_inequality",
    "double_factorial",
    "is_evenly_covered",
    "evenly_covered_tuple_count",
    "count_evenly_covered_x",
    "x_s_upper_bound",
    "a_r",
    "a_r_expectation_exact",
    "a_r_moment_exact",
    "lemma_5_5_bound",
]
