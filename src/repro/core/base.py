"""Tester base interface and resource accounting.

Split out of :mod:`repro.core.testers` so the comparison-graph layer
(:mod:`repro.core.graphs`) can subclass :class:`UniformityTester` while
the concrete testers in :mod:`repro.core.testers` subclass the graph
layer in turn — base ← graphs ← testers, no cycles.  Both names are
re-exported from :mod:`repro.core.testers` for existing call sites.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np

from ..distributions.discrete import DiscreteDistribution, uniform
from ..distributions.families import PaninskiFamily
from ..engine import KernelBase, tester_fingerprint
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng


@dataclass(frozen=True)
class TesterResources:
    """The resources a tester consumes per execution."""

    num_players: int
    samples_per_player: int
    message_bits: int

    @property
    def total_samples(self) -> int:
        return self.num_players * self.samples_per_player


class UniformityTester(KernelBase, ABC):
    """Base interface shared by every uniformity tester.

    Decisions are boolean with ``True`` = accept = "looks uniform".  The
    paper's correctness requirement is two-sided 2/3 confidence:
    completeness ``P[accept | U_n] >= 2/3`` and soundness
    ``P[reject | ε-far] >= 2/3``.

    Every tester is an :class:`~repro.engine.kernels.AcceptKernel`:
    subclasses implement ``accept_block`` and ``resources``; the base
    derives ``cache_token`` from the tester's fingerprint and sizes
    tiles by the total sample budget unless a subclass declares its own
    ``elements_per_trial``.  ``accept_batch``, ``test`` and
    ``acceptance_probability`` come from
    :class:`~repro.engine.estimate.KernelBase`.
    """

    kernel_version = 1

    def __init__(self, n: int, epsilon: float):
        if n < 2:
            raise InvalidParameterError(f"n must be >= 2, got {n}")
        if not 0.0 < epsilon < 1.0:
            raise InvalidParameterError(f"epsilon must be in (0,1), got {epsilon}")
        self.n = int(n)
        self.epsilon = float(epsilon)

    @abstractmethod
    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Boolean accept vector for one RNG block; every draw from ``rng``."""

    @property
    @abstractmethod
    def resources(self) -> TesterResources:
        """Players / samples / message bits consumed per execution."""

    @property
    def cache_token(self) -> Dict[str, Any]:
        """The kernel identity: fingerprint plus ``kernel_version``."""
        return {**self._token_header("tester"), **tester_fingerprint(self)}

    @property
    def elements_per_trial(self) -> int:
        """Tiling hint: the samples one execution draws."""
        return int(self.resources.total_samples)

    def completeness(self, trials: int, rng: RngLike = None) -> float:
        """P[accept | U_n], estimated."""
        return self.acceptance_probability(uniform(self.n), trials, rng)

    def soundness(
        self, far_distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> float:
        """P[reject | far_distribution], estimated."""
        return 1.0 - self.acceptance_probability(far_distribution, trials, rng)

    def worst_case_success(
        self,
        trials: int,
        rng: RngLike = None,
        num_family_members: int = 5,
        extra_far_distributions: Sequence[DiscreteDistribution] = (),
    ) -> float:
        """min(completeness, soundness) over an adversarial test set.

        Soundness is taken as the minimum over ``num_family_members``
        random Paninski members (the paper's hard family, which should be
        the hardest alternative) plus any caller-supplied distributions.
        """
        generator = ensure_rng(rng)
        success = self.completeness(trials, generator)
        family = PaninskiFamily(self.n if self.n % 2 == 0 else self.n - 1, self.epsilon)
        for _ in range(num_family_members):
            member = family.sample_distribution(generator)
            success = min(success, self.soundness(member, trials, generator))
        for far in extra_far_distributions:
            success = min(success, self.soundness(far, trials, generator))
        return success

    def __repr__(self) -> str:
        res = self.resources
        return (
            f"{type(self).__name__}(n={self.n}, eps={self.epsilon}, "
            f"k={res.num_players}, q={res.samples_per_player})"
        )
