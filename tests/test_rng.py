"""Tests for RNG utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.rng import ensure_rng, spawn_streams


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_seed_sequence(self):
        sequence = np.random.SeedSequence(7)
        assert isinstance(ensure_rng(sequence), np.random.Generator)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            ensure_rng("not a seed")


class TestStreams:
    def test_spawn_count(self):
        streams = spawn_streams(0, 5)
        assert len(streams) == 5

    def test_spawn_zero(self):
        assert spawn_streams(0, 0) == []

    def test_spawn_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            spawn_streams(0, -1)

    def test_spawned_streams_differ(self):
        streams = spawn_streams(0, 2)
        assert not np.array_equal(streams[0].random(10), streams[1].random(10))

    def test_spawn_deterministic_from_seed(self):
        a = spawn_streams(123, 3)[2].random(4)
        b = spawn_streams(123, 3)[2].random(4)
        assert np.array_equal(a, b)
