"""Sample oracles: the interface between distributions and protocols.

A :class:`SampleOracle` draws from a live distribution and meters
consumption, so a caller can count the *exact* number of samples drawn
(the resource the paper's lower bounds count) and cap it with a budget.
The Monte-Carlo kernels draw whole sample matrices instead
(:meth:`~repro.distributions.discrete.DiscreteDistribution.sample_matrix`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import InvalidParameterError, ProtocolError
from ..rng import RngLike, ensure_rng
from .discrete import DiscreteDistribution


class SampleOracle:
    """Metered i.i.d. sample access to a distribution.

    Parameters
    ----------
    distribution:
        The unknown distribution μ players are testing.
    rng:
        Seed/generator for this oracle's private stream.
    budget:
        Optional hard cap; drawing past it raises :class:`ProtocolError`,
        which enforces a per-player sample complexity.
    """

    def __init__(
        self,
        distribution: DiscreteDistribution,
        rng: RngLike = None,
        budget: Optional[int] = None,
    ):
        if budget is not None and budget < 0:
            raise InvalidParameterError(f"budget must be >= 0, got {budget}")
        self._distribution = distribution
        self._rng = ensure_rng(rng)
        self._budget = budget
        self._drawn = 0

    @property
    def domain_size(self) -> int:
        """Size of the universe the samples come from."""
        return self._distribution.n

    @property
    def samples_drawn(self) -> int:
        """Total samples drawn so far through this oracle."""
        return self._drawn

    @property
    def budget(self) -> Optional[int]:
        """The hard cap on draws, or ``None`` for unlimited."""
        return self._budget

    def draw(self, count: int) -> np.ndarray:
        """Draw ``count`` i.i.d. samples, debiting the budget."""
        if count < 0:
            raise InvalidParameterError(f"count must be >= 0, got {count}")
        if self._budget is not None and self._drawn + count > self._budget:
            raise ProtocolError(
                f"oracle budget exceeded: {self._drawn} drawn, "
                f"{count} requested, budget {self._budget}"
            )
        samples = self._distribution.sample(count, self._rng)
        self._drawn += count
        return samples

    def __repr__(self) -> str:
        return (
            f"SampleOracle(n={self.domain_size}, drawn={self._drawn}, "
            f"budget={self._budget})"
        )


def oracle_for(
    distribution: DiscreteDistribution,
    rng: RngLike = None,
    budget: Optional[int] = None,
) -> SampleOracle:
    """Convenience constructor mirroring :class:`SampleOracle`."""
    return SampleOracle(distribution, rng, budget)
