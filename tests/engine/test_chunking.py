"""Tests for RNG-block planning and memory-bounded tiling."""

from __future__ import annotations

import pytest

from repro.engine import RNG_BLOCK_TRIALS, plan_blocks, plan_tiles
from repro.engine.chunking import tile_trials
from repro.exceptions import InvalidParameterError


class TestPlanBlocks:
    def test_exact_multiple(self):
        blocks = plan_blocks(4 * RNG_BLOCK_TRIALS)
        assert len(blocks) == 4
        assert all(block.trials == RNG_BLOCK_TRIALS for block in blocks)
        assert [block.index for block in blocks] == [0, 1, 2, 3]

    def test_ragged_tail(self):
        blocks = plan_blocks(RNG_BLOCK_TRIALS + 5)
        assert [block.trials for block in blocks] == [RNG_BLOCK_TRIALS, 5]
        assert blocks[1].start == RNG_BLOCK_TRIALS

    def test_tiny_batch_is_one_block(self):
        blocks = plan_blocks(3)
        assert len(blocks) == 1
        assert blocks[0].trials == 3

    def test_blocks_cover_all_trials_contiguously(self):
        blocks = plan_blocks(1000)
        cursor = 0
        for block in blocks:
            assert block.start == cursor
            cursor += block.trials
        assert cursor == 1000

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidParameterError):
            plan_blocks(0)


class TestPlanTiles:
    def test_respects_element_budget(self):
        blocks = plan_blocks(10 * RNG_BLOCK_TRIALS)
        per_trial = 100
        tiles = plan_tiles(blocks, per_trial, max_elements=2 * RNG_BLOCK_TRIALS * per_trial)
        assert all(
            tile_trials(tile) * per_trial <= 2 * RNG_BLOCK_TRIALS * per_trial
            for tile in tiles
        )

    def test_never_splits_blocks(self):
        blocks = plan_blocks(5 * RNG_BLOCK_TRIALS)
        tiles = plan_tiles(blocks, 10, max_elements=1)  # tighter than one block
        assert len(tiles) == len(blocks)
        assert all(len(tile) == 1 for tile in tiles)

    def test_single_tile_when_budget_is_large(self):
        blocks = plan_blocks(8 * RNG_BLOCK_TRIALS)
        tiles = plan_tiles(blocks, 10, max_elements=10**9)
        assert len(tiles) == 1

    def test_preserves_block_order(self):
        blocks = plan_blocks(7 * RNG_BLOCK_TRIALS + 3)
        tiles = plan_tiles(blocks, 50, max_elements=3 * RNG_BLOCK_TRIALS * 50)
        flattened = [block.index for tile in tiles for block in tile]
        assert flattened == list(range(len(blocks)))

    def test_rejects_bad_budget(self):
        with pytest.raises(InvalidParameterError):
            plan_tiles(plan_blocks(10), 10, max_elements=0)


class TestPlanCostTiles:
    def test_groups_to_trial_target(self):
        blocks = plan_blocks(16 * RNG_BLOCK_TRIALS)
        tiles = plan_tiles(
            blocks, 10, max_elements=10**12, target_trials=4 * RNG_BLOCK_TRIALS
        )
        assert len(tiles) == 4
        assert all(tile_trials(tile) == 4 * RNG_BLOCK_TRIALS for tile in tiles)

    def test_memory_bound_still_binds(self):
        blocks = plan_blocks(8 * RNG_BLOCK_TRIALS)
        per_trial = 10
        tiles = plan_tiles(
            blocks,
            per_trial,
            max_elements=2 * RNG_BLOCK_TRIALS * per_trial,
            target_trials=8 * RNG_BLOCK_TRIALS,
        )
        # Despite the large trial target, memory caps every tile at 2 blocks.
        assert all(len(tile) <= 2 for tile in tiles)

    def test_never_splits_blocks_and_preserves_order(self):
        blocks = plan_blocks(9 * RNG_BLOCK_TRIALS + 7)
        tiles = plan_tiles(
            blocks, 10, max_elements=10**12, target_trials=2.5 * RNG_BLOCK_TRIALS
        )
        flattened = [block.index for tile in tiles for block in tile]
        assert flattened == list(range(len(blocks)))
        assert sum(tile_trials(tile) for tile in tiles) == 9 * RNG_BLOCK_TRIALS + 7

    def test_tiny_target_degrades_to_one_block_tiles(self):
        blocks = plan_blocks(5 * RNG_BLOCK_TRIALS)
        tiles = plan_tiles(blocks, 10, max_elements=10**12, target_trials=1)
        assert len(tiles) == len(blocks)
        assert all(len(tile) == 1 for tile in tiles)

    def test_same_grouping_as_plan_tiles_when_target_is_huge(self):
        blocks = plan_blocks(12 * RNG_BLOCK_TRIALS)
        per_trial, budget = 25, 5 * RNG_BLOCK_TRIALS * 25
        memory_only = plan_tiles(blocks, per_trial, budget)
        cost_model = plan_tiles(blocks, per_trial, budget, target_trials=10**9)
        assert memory_only == cost_model

    def test_rejects_bad_budget(self):
        with pytest.raises(InvalidParameterError):
            plan_tiles(plan_blocks(10), 10, max_elements=0, target_trials=64)
