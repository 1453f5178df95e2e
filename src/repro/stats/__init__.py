"""Statistical harness: empirical complexity search, fitting, power curves.

* :mod:`repro.stats.complexity` — the empirical resource-complexity
  search: q*(tester; n, k, ε) or k* via one exponential-bracketing +
  binary-search skeleton, with each level classified either on a fixed
  trial budget or by the engine's sequential test
  (:class:`repro.engine.SprtSpec`).
* :mod:`repro.stats.fitting` — log-log power-law fits for extracting the
  scaling exponents the paper's theorems predict.
* :mod:`repro.stats.power` — success-probability power curves.
"""

from .complexity import (
    SampleComplexityResult,
    empirical_sample_complexity,
    empirical_player_complexity,
    graph_family_complexity_sweep,
    streaming_memory_complexity_sweep,
    success_at,
)
from .fitting import PowerLawFit, fit_power_law
from .power import PowerCurve, power_curve
from .ascii import sparkline, success_curve_plot

__all__ = [
    "SampleComplexityResult",
    "empirical_sample_complexity",
    "empirical_player_complexity",
    "graph_family_complexity_sweep",
    "streaming_memory_complexity_sweep",
    "success_at",
    "PowerLawFit",
    "fit_power_law",
    "PowerCurve",
    "power_curve",
    "sparkline",
    "success_curve_plot",
]
