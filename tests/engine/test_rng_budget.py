"""Runtime cross-check of ``elements_per_trial`` (the dynamic RL803 twin).

``plan_tiles`` trusts a kernel's ``elements_per_trial``
as an upper bound on the per-trial RNG footprint; the static RL803 rule
verifies it symbolically where the draws are statically countable.  This
module closes the soundness gaps the interpreter degrades on (per-player
loops, rejection sampling, helper dispatch) by *counting* the elements
every registered kernel actually draws and asserting the declaration
covers them — a differential test on the shape interpreter itself.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.closeness import UniformityViaCloseness
from repro.core.learning import LearningSuccessKernel
from repro.distributions.discrete import uniform
from repro.engine import BernoulliKernel, as_kernel
from repro.rng import ensure_rng

nx = pytest.importorskip("networkx")

EPS = 0.5


class CountingRng(np.random.Generator):
    """A ``Generator`` that counts the array elements it hands out.

    Subclasses :class:`numpy.random.Generator` so ``ensure_rng`` passes
    it through unchanged, and the counted stream is bit-identical to a
    plain ``default_rng(seed)`` stream.
    """

    def __init__(self, seed: int = 0):
        super().__init__(np.random.PCG64(seed))
        self.elements = 0

    def _count(self, value):
        self.elements += int(np.size(value))
        return value

    def random(self, *args, **kwargs):
        return self._count(super().random(*args, **kwargs))

    def integers(self, *args, **kwargs):
        return self._count(super().integers(*args, **kwargs))

    def uniform(self, *args, **kwargs):
        return self._count(super().uniform(*args, **kwargs))

    def normal(self, *args, **kwargs):
        return self._count(super().normal(*args, **kwargs))

    def standard_normal(self, *args, **kwargs):
        return self._count(super().standard_normal(*args, **kwargs))

    def poisson(self, *args, **kwargs):
        return self._count(super().poisson(*args, **kwargs))

    def permutation(self, *args, **kwargs):
        # numpy implements permutation via shuffle; snapshot so the
        # internal shuffle call is not double-counted.
        before = self.elements
        value = super().permutation(*args, **kwargs)
        self.elements = before + int(np.size(value))
        return value

    def choice(self, *args, **kwargs):
        return self._count(super().choice(*args, **kwargs))

    def shuffle(self, x, *args, **kwargs):
        self.elements += int(np.size(x))
        return super().shuffle(x, *args, **kwargs)


#: Every registered kernel family, parameterized by the sweep sizes.
KERNEL_FACTORIES = {
    "bernoulli": lambda n, k: BernoulliKernel(0.625),
    "centralized": lambda n, k: repro.CentralizedCollisionTester(n, EPS),
    "amplified": lambda n, k: repro.AmplifiedTester(
        repro.CentralizedCollisionTester(n, EPS), repetitions=3
    ),
    "threshold-rule": lambda n, k: repro.ThresholdRuleTester(n, EPS, k=k),
    "pairwise-hash": lambda n, k: repro.PairwiseHashTester(n, EPS, k),
    "simulation": lambda n, k: repro.SimulationTester(n, EPS, k),
    "unique-elements": lambda n, k: repro.UniqueElementsTester(n, EPS),
    "empirical-distance": lambda n, k: repro.EmpiricalDistanceTester(n, EPS),
    "multibit": lambda n, k: repro.MultibitThresholdTester(n, EPS, k),
    "closeness-reduction": lambda n, k: UniformityViaCloseness(
        repro.ClosenessTester(n, EPS)
    ),
    "network": lambda n, k: repro.NetworkUniformityTester(
        nx.path_graph(k), n, EPS
    ),
    "learning-hits": lambda n, k: LearningSuccessKernel(
        repro.HitCountingLearner(n, k, 3), delta=2.0
    ),
    "learning-dither": lambda n, k: LearningSuccessKernel(
        repro.FrequencyDitheringLearner(n, k, 3), delta=2.0
    ),
    "graph-cycle": lambda n, k: repro.ComparisonGraphTester(
        n, EPS, repro.cycle_graph(3 * k)
    ),
    "graph-matching-distinct": lambda n, k: repro.ComparisonGraphTester(
        n, EPS, repro.matching_graph(2 * k), mode="distinct"
    ),
    "network-graph": lambda n, k: repro.NetworkUniformityTester(
        nx.path_graph(k), n, EPS, comparison_graph=repro.bipartite_graph(6)
    ),
}

SIZES = ((8, 4), (32, 8), (64, 12))
TRIALS = (7, 16)


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_elements_per_trial_covers_actual_draws(name):
    factory = KERNEL_FACTORIES[name]
    for n, k in SIZES:
        kernel = as_kernel(factory(n, k))
        declared = int(kernel.elements_per_trial)
        assert declared >= 1
        distribution = uniform(n)
        for trials in TRIALS:
            rng = CountingRng(seed=2026)
            accepts = np.asarray(
                kernel.accept_block(distribution, trials, rng)
            )
            assert accepts.shape == (trials,)
            assert accepts.dtype == np.bool_
            assert declared * trials >= rng.elements, (
                f"{name} at (n={n}, k={k}): declares {declared}/trial "
                f"but drew {rng.elements} elements over {trials} trials"
            )


def test_counting_rng_is_stream_transparent():
    counted = CountingRng(seed=7)
    plain = np.random.default_rng(7)
    np.testing.assert_array_equal(
        counted.random(5), plain.random(5)
    )
    np.testing.assert_array_equal(
        counted.integers(0, 9, size=(2, 3)), plain.integers(0, 9, size=(2, 3))
    )
    assert counted.elements == 5 + 6
    assert ensure_rng(counted) is counted


def test_counting_rng_counts_scalar_and_permutation_draws():
    rng = CountingRng(seed=1)
    rng.random()
    rng.permutation(4)
    rng.poisson(1.5, size=(3, 2))
    assert rng.elements == 1 + 4 + 6
