"""The shared Monte Carlo execution layer.

All batched execution funnels through here:

* :func:`_dispatch` — the one accept-tile loop.  Fixed-budget and
  sequential estimates (:func:`~repro.engine.estimate.estimate_acceptance`)
  and :func:`chunked_accepts` all run through it;
* :func:`chunked_accepts` — the boolean accept vector of any
  :class:`~repro.engine.kernels.AcceptKernel` (the shared
  ``accept_batch`` of :class:`~repro.engine.estimate.KernelBase`).

Determinism contract
--------------------
Every batch derives one **root entropy** from its ``rng`` argument
(an integer seed is used verbatim; a generator is asked for one 63-bit
draw).  Trials are cut into fixed-size RNG blocks
(:data:`~repro.engine.chunking.RNG_BLOCK_TRIALS`), and block ``b`` is
always computed with ``default_rng(SeedSequence(root, spawn_key=(b,)))``.
Because the spawn key depends only on the block index, the concatenated
result is bit-identical across backends, worker counts and tile sizes.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence

import numpy as np
import numpy.typing as npt

from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng
from .chunking import RNG_BLOCK_TRIALS, Block, plan_blocks, plan_tiles, tile_trials
from .config import get_engine
from .kernels import require_kernel
from .metrics import EngineMetrics

#: Result arrays flowing through the engine (dtype varies by kernel).
Array = npt.NDArray[Any]

#: Ceiling on pool dispatch overhead as a fraction of tile compute; sizes
#: the tiles that follow the timed inline tile on parallel backends.
DISPATCH_OVERHEAD_TARGET = 0.05


def derive_root_entropy(rng: RngLike) -> int:
    """One integer that seeds the whole batch.

    Integer seeds pass through unchanged (so equal seeds give equal
    batches and stable cache keys); generators contribute one draw, which
    keeps successive batches on a shared generator independent.
    """
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        if rng < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {int(rng)}")
        return int(rng)
    generator = ensure_rng(rng)
    return int(generator.integers(0, 2**63 - 1))


def block_seed(root_entropy: int, block_index: int) -> np.random.SeedSequence:
    """The spawned seed owning RNG block ``block_index``."""
    return np.random.SeedSequence(entropy=root_entropy, spawn_key=(block_index,))


def _block_generator(root_entropy: int, block: Block) -> np.random.Generator:
    return np.random.default_rng(block_seed(root_entropy, block.index))


def _join(pieces: Sequence[Array]) -> Array:
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _accepts_tile(
    runner: Any, distribution: Any, tile: Sequence[Block], root_entropy: int
) -> Array:
    """Accept vector for one tile of an ``accept_block`` runner."""
    return _join(
        [
            np.asarray(
                runner.accept_block(
                    distribution, block.trials, _block_generator(root_entropy, block)
                )
            )
            for block in tile
        ]
    )


def _count_wave(
    metrics: EngineMetrics, wave: Sequence[Sequence[Block]], elements_per_trial: int
) -> None:
    """Record one dispatched wave of tiles on the engine counters."""
    trials = sum(tile_trials(tile) for tile in wave)
    metrics.count("protocol_trials", trials)
    metrics.count("samples_drawn", trials * elements_per_trial)
    metrics.count("tiles_executed", len(wave))
    metrics.count("rng_blocks", sum(len(tile) for tile in wave))


def _dispatch(
    kernel: Any,
    distribution: Any,
    trials: int,
    root_entropy: int,
    elements_per_trial: int,
    consume: Optional[Callable[[Block, Array], bool]] = None,
) -> Array:
    """The one plan → tile → dispatch → count loop for accept kernels.

    Blocks are grouped into memory-bounded tiles.  On a parallel backend
    the first tile runs inline, timed with ``config.clock``; if more
    tiles follow, the remaining blocks are regrouped so per-tile
    dispatch overhead stays below :data:`DISPATCH_OVERHEAD_TARGET` of the
    measured compute (clamped between one RNG block and an even split
    across workers; the memory bound stays hard).  Tiles then go out in
    waves through ``backend.map_accept_tiles``: all at once without
    ``consume``, one tile per worker with it.

    ``consume(block, accepts)`` sees every block strictly in index order;
    the first ``True`` it returns stops the loop and drops every later
    block, executed or not.  Returns the accepts of the consumed blocks
    (all of them without ``consume``).  Regrouping never splits an RNG
    block, so the result is bit-identical under any backend and tiling.
    """
    config = get_engine()
    metrics = config.metrics
    workers = max(1, int(getattr(config.backend, "max_workers", 1)))
    tiles = plan_tiles(plan_blocks(trials), elements_per_trial, config.max_elements)
    kept: List[Array] = []

    def run(wave: Sequence[Sequence[Block]], results: Sequence[Array]) -> bool:
        _count_wave(metrics, wave, elements_per_trial)
        for tile, accepts in zip(wave, results):
            accepts = np.asarray(accepts)
            if consume is None:
                kept.append(accepts)
                continue
            offset = 0
            for block in tile:
                piece = accepts[offset : offset + block.trials]
                offset += block.trials
                kept.append(piece)
                if consume(block, piece):
                    return True
        return False

    if workers > 1:
        # Inline: a one-tile plan needs no dispatch at all, and a longer
        # one learns its per-trial cost for the regrouping below.
        with metrics.timed():
            started = config.clock()
            first = _accepts_tile(kernel, distribution, tiles[0], root_entropy)
            per_trial_s = max(config.clock() - started, 1e-9) / tile_trials(tiles[0])
        if run(tiles[:1], [first]) or len(tiles) == 1:
            return _join(kept)
        remaining = [block for tile in tiles[1:] for block in tile]
        dispatch_s = config.backend.dispatch_overhead_s(config.clock)
        target = dispatch_s / (DISPATCH_OVERHEAD_TARGET * per_trial_s)
        fair_share = math.ceil(sum(block.trials for block in remaining) / workers)
        target = max(float(RNG_BLOCK_TRIALS), min(target, float(fair_share)))
        tiles = plan_tiles(remaining, elements_per_trial, config.max_elements, target)
        metrics.count("autotile_retiles")

    width = workers if consume is not None else len(tiles)
    for start in range(0, len(tiles), width):
        wave = tiles[start : start + width]
        with metrics.timed():
            results = config.backend.map_accept_tiles(
                kernel, distribution, wave, root_entropy
            )
        if run(wave, results):
            break
    return _join(kept)


def chunked_accepts(
    runner: Any, distribution: Any, trials: int, rng: RngLike = None
) -> Array:
    """Boolean accept vector of an accept kernel, tiled.

    ``runner`` must be an :class:`~repro.engine.kernels.AcceptKernel`;
    its ``elements_per_trial`` sizes the tiles.  The runner is shipped
    to workers whole, so it must be picklable.
    """
    require_kernel(runner)
    if trials < 1:
        # Before the root draw: a rejected call leaves ``rng`` untouched.
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    return _dispatch(
        runner,
        distribution,
        trials,
        derive_root_entropy(rng),
        int(runner.elements_per_trial),
    )
