# lint-path: repro/core/shapes_example_ok.py
"""Golden fixture: kernels with explicit widths that RL802 must not flag."""
import numpy as np


class VectorVerdictKernel:
    """The canonical contract: bool (trials,) with an exact budget."""

    def __init__(self, width):
        self.width = width

    @property
    def cache_token(self):
        return {"width": self.width}

    @property
    def elements_per_trial(self):
        return self.width + 1

    def accept_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, self.width, rng)
        thresholds = rng.random(trials)
        return samples.mean(axis=1) < thresholds


class OverDeclaredKernel:
    """elements_per_trial is a footprint: over-declaration is fine."""

    def __init__(self, width):
        self.width = width

    @property
    def cache_token(self):
        return {"width": self.width}

    @property
    def elements_per_trial(self):
        return 4 * self.width

    def accept_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, self.width, rng)
        return samples.sum(axis=1).astype(np.int64) < trials


class IncomparableBudgetKernel:
    """Unrelated size symbols are incomparable: k may exceed g anyway."""

    def __init__(self, k, groups):
        self.k = k
        self.groups = groups

    @property
    def cache_token(self):
        return {"k": self.k, "groups": self.groups}

    @property
    def elements_per_trial(self):
        return self.k

    def accept_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, self.groups, rng)
        return samples.any(axis=1)


class LoopDegradedKernel:
    """Draws inside a per-player loop poison the budget to ⊤, not a finding."""

    @property
    def cache_token(self):
        return {"kind": "loop"}

    @property
    def elements_per_trial(self):
        return 1

    def accept_block(self, distribution, trials, rng):
        totals = np.zeros(trials, dtype=np.int64)
        for player in self.players:
            totals += distribution.sample_matrix(trials, 2, rng).sum(axis=1)
        return totals > 0


class OpaqueScoreKernel:
    """A helper ``*_block`` method is audited like accept_block."""

    @property
    def cache_token(self):
        return {"kind": "opaque"}

    def accept_block(self, distribution, trials, rng):
        scores = self.scores_block(distribution, trials, rng)
        return scores > 0

    def scores_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, 3, rng)
        counts = np.bincount(samples.ravel(), minlength=trials)
        return counts[:trials]


class AlignedBroadcastKernel:
    """Explicit trial-axis alignment broadcasts soundly."""

    @property
    def cache_token(self):
        return {"kind": "aligned"}

    def accept_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, 5, rng)
        offsets = np.arange(trials, dtype=np.int64)[:, np.newaxis]
        frequencies = (samples + offsets).astype(np.float64) / 5.0
        gaps = np.abs(frequencies - 0.5)
        return (gaps < 0.25).all(axis=1)


class GraphStatisticKernel:
    """The comparison-graph contract: q drawn per trial, the edge mask a
    pure transform, int64 counts cut to a bool verdict."""

    def __init__(self, num_vertices, num_edges):
        self.num_vertices = num_vertices
        self.num_edges = num_edges

    @property
    def cache_token(self):
        return {"q": self.num_vertices, "m": self.num_edges}

    @property
    def elements_per_trial(self):
        return self.num_vertices + self.num_edges

    def accept_block(self, distribution, trials, rng):
        samples = distribution.sample_matrix(trials, self.num_vertices, rng)
        collide = samples[:, self.edge_u] == samples[:, self.edge_v]
        counts = collide.sum(axis=1).astype(np.int64)
        return counts <= self.threshold
