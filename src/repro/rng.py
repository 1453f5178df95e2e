"""Seeded random-number-generator utilities.

Every stochastic component in this library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` (fresh OS entropy).  This module
centralises the coercion logic and provides *stream spawning*: a distributed
protocol hands each of its ``k`` players an independent generator derived
deterministically from a single root seed, so whole experiments are exactly
reproducible from one integer.

Example
-------
>>> from repro.rng import ensure_rng, spawn_streams
>>> root = ensure_rng(1234)
>>> players = spawn_streams(root, 8)   # 8 independent generators
>>> len(players)
8
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from .exceptions import InvalidParameterError

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise InvalidParameterError(
        f"seed must be None, int, SeedSequence or Generator, got {type(seed)!r}"
    )


def spawn_streams(rng: RngLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent generators.

    The streams are produced via :meth:`numpy.random.Generator.spawn` (or a
    fresh ``SeedSequence`` when an integer seed is given), guaranteeing
    independence across players in a simulated protocol.
    """
    if count < 0:
        raise InvalidParameterError(f"count must be >= 0, got {count}")
    generator = ensure_rng(rng)
    if count == 0:
        return []
    return list(generator.spawn(count))
