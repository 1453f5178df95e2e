"""Success-probability power curves.

A power curve traces ``success(resource)`` for a tester family over a grid
of resource levels (q, k or τ); it is the raw material behind every
empirical-complexity number and makes crossovers visible (e.g. where the
threshold-rule tester overtakes the AND-rule tester).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..distributions.discrete import DiscreteDistribution
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng
from .complexity import TesterFactory, default_far_distributions, success_at


@dataclass
class PowerCurve:
    """success(resource) over an explicit grid."""

    levels: List[int]
    successes: List[float]
    label: str = ""

    def crossing(self, target: float = 2.0 / 3.0) -> Optional[int]:
        """First grid level whose success reaches ``target`` (None if none)."""
        for level, success in zip(self.levels, self.successes):
            if success >= target:
                return level
        return None


def power_curve(
    tester_factory: TesterFactory,
    levels: Sequence[int],
    n: int,
    epsilon: float,
    trials: int = 300,
    far_distributions: Optional[Sequence[DiscreteDistribution]] = None,
    rng: RngLike = None,
    label: str = "",
) -> PowerCurve:
    """Evaluate ``success(level)`` across a resource grid."""
    if not levels:
        raise InvalidParameterError("levels must be non-empty")
    generator = ensure_rng(rng)
    alternatives = (
        list(far_distributions)
        if far_distributions is not None
        else default_far_distributions(n, epsilon, generator)
    )
    successes = []
    for level in levels:
        tester = tester_factory(int(level))
        successes.append(success_at(tester, alternatives, trials, generator))
    return PowerCurve(levels=[int(level) for level in levels], successes=successes, label=label)
