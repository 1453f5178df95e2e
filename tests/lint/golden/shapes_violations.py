# lint-path: repro/core/shapes_example.py
"""Golden fixture: RL802 fires on platform widths and float equality.

The other kernels break the runtime kernel contract (a bool ``(trials,)``
return, no exception, draws within ``elements_per_trial``) and carry no
RL802 hazard.  ``tests/engine/test_rng_budget.py`` runs each of them and
asserts the contract checker fails it.
"""
import numpy as np


class ScalarCollapseKernel:
    """Missing axis= collapses the whole batch to one scalar verdict."""

    @property
    def cache_token(self):
        return {"kind": "scalar-collapse"}

    def accept_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, 8, rng)
        return (samples < 4).all()


class MatrixReturnKernel:
    """The per-trial axis was never reduced: (trials, k) escapes."""

    @property
    def cache_token(self):
        return {"kind": "matrix"}

    def accept_block(self, distribution, trials, rng):
        draws = rng.random((trials, 6))
        return draws < 0.5


class CountReturnKernel:
    """Counts are not verdicts: the contract is boolean."""

    @property
    def cache_token(self):
        return {"kind": "count"}

    def accept_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, 8, rng)
        return (samples == 0).sum(axis=1)


class PlatformDtypeKernel:
    """np.int_/bare int change width across platforms; float == is noise."""

    @property
    def cache_token(self):
        return {"kind": "platform"}

    def accept_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, 8, rng)
        counts = samples.astype(np.int_)  # expect: RL802
        hits = counts.astype(int)  # expect: RL802
        uniforms = rng.random((trials, 8))
        verdict = (uniforms == 0.5).any(axis=1)  # expect: RL802
        return verdict & (hits.sum(axis=1) > 0)


class UnderDeclaredKernel:
    """The dithering draw of one element per trial was never declared."""

    def __init__(self, width):
        self.width = width

    @property
    def cache_token(self):
        return {"width": self.width}

    @property
    def elements_per_trial(self):
        return self.width

    def accept_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, self.width, rng)
        thresholds = rng.random(trials)
        return samples.mean(axis=1) < thresholds


class MisalignedKernel:
    """Concrete trailing dims 3 vs 4 can never broadcast."""

    @property
    def cache_token(self):
        return {"kind": "misaligned"}

    def accept_block(self, distribution, trials, rng):
        left = rng.random((trials, 3))
        right = rng.random((trials, 4))
        gap = left - right
        return gap.any(axis=1)


class GraphCountReturnKernel:
    """The matching-graph edge statistic itself is not a verdict."""

    @property
    def cache_token(self):
        return {"kind": "graph-count"}

    def accept_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, 8, rng)
        paired = samples.reshape(trials, 4, 2)
        collide = paired[:, :, 0] == paired[:, :, 1]
        return collide.sum(axis=1)


class DitheredGraphKernel:
    """Boundary dither draws one uniform per trial beyond the declared q."""

    def __init__(self, num_vertices):
        self.num_vertices = num_vertices

    @property
    def cache_token(self):
        return {"q": self.num_vertices}

    @property
    def elements_per_trial(self):
        return self.num_vertices

    def accept_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, self.num_vertices, rng)
        collide = samples[:, self.edge_u] == samples[:, self.edge_v]
        counts = collide.sum(axis=1).astype(np.int64)
        dither = rng.random(trials)
        return (counts < self.threshold) | (dither < self.gamma)
