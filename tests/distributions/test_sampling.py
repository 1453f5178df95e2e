"""Tests for sample oracles."""

from __future__ import annotations

import pytest

from repro.distributions import SampleOracle, oracle_for, uniform
from repro.exceptions import InvalidParameterError, ProtocolError


class TestSampleOracle:
    def test_draw_meters_consumption(self, rng):
        oracle = SampleOracle(uniform(8), rng)
        oracle.draw(5)
        oracle.draw(3)
        assert oracle.samples_drawn == 8

    def test_budget_enforced(self, rng):
        oracle = SampleOracle(uniform(8), rng, budget=10)
        oracle.draw(7)
        with pytest.raises(ProtocolError):
            oracle.draw(4)
        # the failed draw must not consume budget
        assert oracle.samples_drawn == 7
        oracle.draw(3)

    def test_negative_count_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            SampleOracle(uniform(8), rng).draw(-1)

    def test_oracle_for_helper(self):
        oracle = oracle_for(uniform(4), rng=0, budget=2)
        assert oracle.domain_size == 4
        assert oracle.budget == 2
