"""Differential tests: the engine substrate vs the naive reference oracle.

:func:`tests.oracles.reference_acceptance_rate` estimates P[accept]
with the plainest possible sequential loop; the engine's block-seeded
path must agree with it *in distribution* (the draw orders differ by
design).  Rates here are compared under independent seeds with a
binomial-scale tolerance, on budgets where a real disagreement — a
biased kernel, a broken adapter — would show up immediately.
"""

from __future__ import annotations

import pytest

import repro
from repro.engine import estimate_acceptance
from repro.exceptions import InvalidParameterError
from tests.oracles import reference_acceptance_rate

N, EPS = 128, 0.5
TRIALS = 400
#: Three-sigma binomial half-width at 400 trials, plus slack.
TOLERANCE = 0.09


def make_testers():
    return [
        repro.CentralizedCollisionTester(N, EPS),
        repro.ThresholdRuleTester(N, EPS, k=8),
        repro.UniqueElementsTester(N, EPS),
    ]


@pytest.mark.parametrize("tester", make_testers(), ids=lambda t: type(t).__name__)
def test_engine_agrees_with_oracle_on_uniform(tester):
    uniform = repro.uniform(N)
    oracle = reference_acceptance_rate(tester, uniform, TRIALS, rng=101)
    engine = estimate_acceptance(tester, uniform, trials=TRIALS, rng=202).rate
    assert abs(oracle - engine) < TOLERANCE


@pytest.mark.parametrize("tester", make_testers(), ids=lambda t: type(t).__name__)
def test_engine_agrees_with_oracle_on_far_input(tester):
    far = repro.two_level_distribution(N, EPS)
    oracle = reference_acceptance_rate(tester, far, TRIALS, rng=303)
    engine = estimate_acceptance(tester, far, trials=TRIALS, rng=404).rate
    assert abs(oracle - engine) < TOLERANCE


def test_acceptance_probability_is_the_engine_path():
    """The public tester API and the entry point give the same numbers."""
    tester = repro.CentralizedCollisionTester(N, EPS)
    uniform = repro.uniform(N)
    direct = tester.acceptance_probability(uniform, TRIALS, rng=7)
    engine = estimate_acceptance(tester, uniform, trials=TRIALS, rng=7).rate
    assert direct == engine


def test_oracle_validates_trials():
    tester = repro.CentralizedCollisionTester(N, EPS)
    with pytest.raises(InvalidParameterError):
        reference_acceptance_rate(tester, repro.uniform(N), 0)
