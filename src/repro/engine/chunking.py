"""Chunked streaming: memory-bounded tiling of Monte Carlo trial batches.

The engine never materialises a full ``trials · k × q`` sample tensor.
Trials are first cut into fixed-size **RNG blocks** — the unit of seed
derivation — and blocks are then grouped into **tiles**, the unit of
dispatch, sized so one tile's sample tensor stays under the configured
``max_elements``.

The two-level split is what makes results chunk-size invariant: each RNG
block ``b`` is always computed with the generator spawned from
``SeedSequence(root, spawn_key=(b,))``, no matter which tile (or worker)
it lands in, so changing ``max_elements`` or the backend regroups work
without changing a single random draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..exceptions import InvalidParameterError

#: Trials per RNG block.  Fixed by design: this constant, not the tile
#: size, defines the seed-derivation granularity.  Changing it changes
#: every Monte Carlo stream, so treat it like a file-format version.
RNG_BLOCK_TRIALS = 64


@dataclass(frozen=True)
class Block:
    """A contiguous run of trials computed under one spawned generator."""

    index: int
    start: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidParameterError(f"block needs >= 1 trial, got {self.trials}")


def plan_blocks(trials: int, block_trials: int = RNG_BLOCK_TRIALS) -> List[Block]:
    """Cut ``trials`` into consecutive fixed-size RNG blocks."""
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if block_trials < 1:
        raise InvalidParameterError(
            f"block_trials must be >= 1, got {block_trials}"
        )
    blocks: List[Block] = []
    start = 0
    index = 0
    while start < trials:
        size = min(block_trials, trials - start)
        blocks.append(Block(index=index, start=start, trials=size))
        start += size
        index += 1
    return blocks


def plan_tiles(
    blocks: Sequence[Block],
    elements_per_trial: int,
    max_elements: int,
    target_trials: float = math.inf,
) -> List[List[Block]]:
    """Group consecutive blocks into tiles of bounded sample-tensor size.

    ``max_elements`` bounds each tile's sample tensor; ``target_trials``
    (unbounded by default) additionally closes a tile once it holds that
    many trials, which is how the engine's dispatch-overhead cost model
    regroups work.  A tile always holds at least one block (a single
    block larger than ``max_elements`` still executes — the bound is a
    target, not a hard cap), and blocks are never split, which preserves
    RNG-block boundaries and therefore bit-identical results under any
    grouping.
    """
    if elements_per_trial < 0:
        raise InvalidParameterError(
            f"elements_per_trial must be >= 0, got {elements_per_trial}"
        )
    if max_elements < 1:
        raise InvalidParameterError(
            f"max_elements must be >= 1, got {max_elements}"
        )
    per_trial = max(1, elements_per_trial)
    trials_cap = max(1.0, float(target_trials))
    tiles: List[List[Block]] = []
    current: List[Block] = []
    current_trials = 0
    current_elements = 0
    for block in blocks:
        block_elements = block.trials * per_trial
        if current and (
            current_elements + block_elements > max_elements
            or current_trials >= trials_cap
        ):
            tiles.append(current)
            current = []
            current_trials = 0
            current_elements = 0
        current.append(block)
        current_trials += block.trials
        current_elements += block_elements
    if current:
        tiles.append(current)
    return tiles


def tile_trials(tile: Sequence[Block]) -> int:
    """Total trials covered by one tile."""
    return sum(block.trials for block in tile)
