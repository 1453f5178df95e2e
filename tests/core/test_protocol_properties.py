"""Hypothesis property tests across the protocol layer."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import (
    AndRule,
    ConstantPlayer,
    GraphStatisticPlayer,
    MajorityRule,
    OrRule,
    SimultaneousProtocol,
    ThresholdRule,
    TruthTableRule,
    WeightedCountRule,
)

bit_matrix = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(min_value=0, max_value=1), min_size=k, max_size=k),
        min_size=1,
        max_size=8,
    )
)


@given(rows=bit_matrix)
@settings(max_examples=60, deadline=None)
def test_and_rule_is_min_or_rule_is_max(rows):
    """AND accepts iff min bit = 1; OR accepts iff max bit = 1."""
    matrix = np.asarray(rows)
    and_decisions = AndRule().decide_batch(matrix)
    or_decisions = OrRule().decide_batch(matrix)
    assert np.array_equal(and_decisions, matrix.min(axis=1) == 1)
    assert np.array_equal(or_decisions, matrix.max(axis=1) == 1)


@given(rows=bit_matrix)
@settings(max_examples=60, deadline=None)
def test_and_implies_majority_implies_or(rows):
    """Decision rules are ordered by permissiveness: AND ⊆ majority ⊆ OR."""
    matrix = np.asarray(rows)
    and_d = AndRule().decide_batch(matrix)
    maj_d = MajorityRule().decide_batch(matrix)
    or_d = OrRule().decide_batch(matrix)
    assert np.all(~and_d | maj_d)
    assert np.all(~maj_d | or_d)


@given(rows=bit_matrix, seed=st.integers(min_value=0, max_value=999))
@settings(max_examples=50, deadline=None)
def test_weighted_rule_with_unit_weights_is_count_threshold(rows, seed):
    matrix = np.asarray(rows)
    k = matrix.shape[1]
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, k + 1))
    weighted = WeightedCountRule(np.ones(k), threshold=k - t + 1)
    threshold = ThresholdRule(t, num_players=k)
    assert np.array_equal(
        weighted.decide_batch(matrix), threshold.decide_batch(matrix)
    )


@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=8)
)
@settings(max_examples=60, deadline=None)
def test_truth_table_round_trip(bits):
    """Tabulating any rule and replaying it gives identical decisions."""
    k = len(bits)
    original = MajorityRule(num_players=k)
    table = TruthTableRule.from_callable(k, lambda b: int(original.decide(b)))
    assert table.decide(bits) == original.decide(bits)


@given(
    k=st.integers(min_value=1, max_value=6),
    q=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=25, deadline=None)
def test_constant_players_make_decisions_deterministic(k, q, seed):
    """With constant players the verdict is a pure function of the rule."""
    protocol = SimultaneousProtocol.homogeneous(
        ConstantPlayer(1), k, q, AndRule()
    )
    accepts = protocol.accept_batch(repro.uniform(16), trials=10, rng=seed)
    assert accepts.all()
    protocol0 = SimultaneousProtocol.homogeneous(
        ConstantPlayer(0), k, q, AndRule()
    )
    rejects = protocol0.accept_batch(repro.uniform(16), trials=10, rng=seed)
    assert not rejects.any()


@given(
    seed=st.integers(min_value=0, max_value=999),
    threshold=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=25, deadline=None)
def test_collision_bit_monotone_in_threshold(seed, threshold):
    """Raising the collision threshold can only flip alarms to accepts."""
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, 16, size=(50, 6))
    graph = repro.complete_graph(6)
    loose = GraphStatisticPlayer(graph, threshold + 1.0).respond_batch(samples)
    tight = GraphStatisticPlayer(graph, threshold).respond_batch(samples)
    assert np.all(loose >= tight)
