"""Tests for the empirical complexity search and power curves."""

from __future__ import annotations

import itertools
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine
from repro.cli import main
from repro.core import AndRuleTester, CentralizedCollisionTester, ThresholdRuleTester
from repro.distributions import two_level_distribution, uniform
from repro.engine import AcceptanceEstimate, SprtSpec, get_engine, set_engine
from repro.exceptions import InvalidParameterError, SearchDivergedError
from repro.stats import (
    complexity,
    empirical_player_complexity,
    empirical_sample_complexity,
    graph_family_complexity_sweep,
    power_curve,
)
from repro.stats.complexity import (
    SampleComplexityResult,
    _probe_seed,
    _search,
    _seeded_classify,
    default_far_distributions,
    probe_sides,
    success_at,
)

N, EPS = 256, 0.5


class TestSuccessAt:
    def test_strong_tester_scores_high(self):
        tester = CentralizedCollisionTester(N, EPS, q=400)
        far = [two_level_distribution(N, EPS)]
        assert success_at(tester, far, trials=200, rng=0) >= 0.7

    def test_weak_tester_scores_low(self):
        tester = CentralizedCollisionTester(N, EPS, q=4)
        far = [two_level_distribution(N, EPS)]
        assert success_at(tester, far, trials=200, rng=0) < 0.67

    def test_requires_far_distributions(self):
        tester = CentralizedCollisionTester(N, EPS)
        with pytest.raises(InvalidParameterError):
            success_at(tester, [], trials=10)

    def test_default_far_distributions_are_far(self):
        from repro.distributions import distance_to_uniform

        for dist in default_far_distributions(N, EPS, rng=0):
            assert distance_to_uniform(dist) >= EPS - 1e-9


class TestSampleComplexitySearch:
    def test_finds_reasonable_q_star(self):
        result = empirical_sample_complexity(
            lambda q: CentralizedCollisionTester(N, EPS, q=q),
            n=N,
            epsilon=EPS,
            trials=200,
            rng=0,
        )
        # Theory: Θ(√n/ε²) = Θ(64); allow generous slack either way.
        assert 16 <= result.resource_star <= 1024

    def test_result_curve_recorded(self):
        result = empirical_sample_complexity(
            lambda q: CentralizedCollisionTester(N, EPS, q=q),
            n=N,
            epsilon=EPS,
            trials=150,
            rng=0,
        )
        assert isinstance(result, SampleComplexityResult)
        assert result.resource_star in result.curve or result.curve
        assert result.bracket_high >= result.bracket_low

    def test_immediate_success_at_minimum(self):
        result = empirical_sample_complexity(
            lambda q: CentralizedCollisionTester(N, EPS, q=max(q, 600)),
            n=N,
            epsilon=EPS,
            trials=150,
            q_min=2,
            rng=0,
        )
        assert result.resource_star == 2

    def test_divergence_raises(self):
        with pytest.raises(SearchDivergedError):
            empirical_sample_complexity(
                lambda q: CentralizedCollisionTester(N, EPS, q=2),  # never improves
                n=N,
                epsilon=EPS,
                trials=100,
                q_max=64,
                rng=0,
            )

    def test_more_players_need_fewer_samples(self):
        few = empirical_sample_complexity(
            lambda q: ThresholdRuleTester(N, EPS, 2, q=q),
            n=N,
            epsilon=EPS,
            trials=150,
            rng=0,
        )
        many = empirical_sample_complexity(
            lambda q: ThresholdRuleTester(N, EPS, 32, q=q),
            n=N,
            epsilon=EPS,
            trials=150,
            rng=0,
        )
        assert many.resource_star < few.resource_star


class TestPlayerComplexitySearch:
    def test_threshold_tester_k_search(self):
        result = empirical_player_complexity(
            lambda k: ThresholdRuleTester(N, EPS, k, q=16),
            n=N,
            epsilon=EPS,
            trials=150,
            rng=0,
        )
        assert result.resource_star >= 2

    def test_level_rounding_applied(self):
        probed, built = [], []

        def factory(k):
            probed.append(k)
            built.append(k + (k % 2))  # the factory snaps k to even
            return ThresholdRuleTester(N, EPS, built[-1], q=24)

        result = empirical_player_complexity(
            factory,
            n=N,
            epsilon=EPS,
            trials=100,
            rng=0,
        )
        assert all(k % 2 == 0 for k in built)
        assert list(result.curve) == probed  # keyed by the unrounded levels


class TestReversedRange:
    def _factory(self, calls, build):
        def factory(level):
            calls.append(level)
            return build(level)

        return factory

    def test_sample_search_rejects_q_min_above_q_max(self):
        calls = []
        factory = self._factory(calls, lambda q: CentralizedCollisionTester(64, 0.6, q=q))
        with pytest.raises(InvalidParameterError):
            empirical_sample_complexity(
                factory, 64, 0.6, trials=60, q_min=400, q_max=100, rng=0
            )
        assert calls == []

    def test_player_search_rejects_k_min_above_k_max(self):
        calls = []
        factory = self._factory(calls, lambda k: ThresholdRuleTester(64, 0.6, k, q=16))
        with pytest.raises(InvalidParameterError):
            empirical_player_complexity(
                factory, 64, 0.6, trials=60, k_min=50, k_max=10, rng=0
            )
        assert calls == []


@given(
    minimum=st.integers(min_value=1, max_value=200),
    span=st.integers(min_value=0, max_value=3000),
    t=st.integers(min_value=1, max_value=4000),
    resolution_factor=st.floats(min_value=1.0, max_value=2.0),
)
@settings(max_examples=300, deadline=None)
def test_search_brackets_a_monotone_verdict(minimum, span, t, resolution_factor):
    maximum = minimum + span
    asked = []

    def passes(level):
        asked.append(level)
        return level >= t

    if t > maximum:
        with pytest.raises(SearchDivergedError):
            _search(passes, 0.7, minimum, maximum, resolution_factor)
    else:
        result = _search(passes, 0.7, minimum, maximum, resolution_factor)
        low, high = result.bracket_low, result.bracket_high
        assert result.resource_star == high
        if t <= minimum:
            assert low == high == minimum
        else:
            assert low < t <= high  # the low end fails, the high end passes
            assert high <= max(low + 1, int(low * resolution_factor))
    assert len(asked) == len(set(asked))
    assert all(minimum <= level <= maximum for level in asked)


class TestPowerCurve:
    def test_monotone_ish_success(self):
        curve = power_curve(
            lambda q: CentralizedCollisionTester(N, EPS, q=q),
            levels=[8, 64, 512],
            n=N,
            epsilon=EPS,
            trials=200,
            rng=0,
        )
        assert curve.successes[0] < curve.successes[-1]

    def test_crossing(self):
        curve = power_curve(
            lambda q: CentralizedCollisionTester(N, EPS, q=q),
            levels=[8, 64, 512],
            n=N,
            epsilon=EPS,
            trials=200,
            rng=0,
        )
        crossing = curve.crossing(2.0 / 3.0)
        assert crossing in (64, 512)

    def test_crossing_none_when_never_reached(self):
        curve = power_curve(
            lambda q: CentralizedCollisionTester(N, EPS, q=q),
            levels=[2, 3],
            n=N,
            epsilon=EPS,
            trials=150,
            rng=0,
        )
        assert curve.crossing(0.99) is None

    def test_rejects_empty_levels(self):
        with pytest.raises(InvalidParameterError):
            power_curve(
                lambda q: CentralizedCollisionTester(N, EPS, q=q),
                levels=[],
                n=N,
                epsilon=EPS,
            )

    def test_as_rows(self):
        curve = power_curve(
            lambda q: CentralizedCollisionTester(N, EPS, q=q),
            levels=[8],
            n=N,
            epsilon=EPS,
            trials=50,
            rng=0,
            label="demo",
        )
        rows = curve.as_rows()
        assert rows[0]["level"] == 8
        assert 0.0 <= rows[0]["success"] <= 1.0


class TestSprtMode:
    def test_sprt_agrees_with_fixed_budget(self):
        factory = lambda q: CentralizedCollisionTester(N, EPS, q=q)  # noqa: E731
        fixed = empirical_sample_complexity(
            factory, N, EPS, trials=250, rng=0
        )
        sequential = empirical_sample_complexity(
            factory, N, EPS, trials=250, rng=1, sprt=True
        )
        ratio = sequential.resource_star / fixed.resource_star
        assert 1 / 3 <= ratio <= 3

    def test_sprt_search_is_deterministic(self):
        factory = lambda q: CentralizedCollisionTester(N, EPS, q=q)  # noqa: E731
        a = empirical_sample_complexity(factory, N, EPS, trials=150, rng=9, sprt=True)
        b = empirical_sample_complexity(factory, N, EPS, trials=150, rng=9, sprt=True)
        assert a.resource_star == b.resource_star
        assert a.curve == b.curve

    def test_sprt_curve_holds_probed_levels(self):
        factory = lambda q: CentralizedCollisionTester(N, EPS, q=q)  # noqa: E731
        result = empirical_sample_complexity(
            factory, N, EPS, trials=150, rng=2, sprt=True
        )
        assert result.resource_star in result.curve
        assert all(0.0 <= rate <= 1.0 for rate in result.curve.values())

    def test_sprt_player_complexity(self):
        factory = lambda k: ThresholdRuleTester(N, EPS, k=max(2, k))  # noqa: E731
        result = empirical_player_complexity(
            factory, N, EPS, trials=150, k_min=2, k_max=4096, rng=3, sprt=True
        )
        assert result.resource_star >= 2

    def test_sprt_max_trials_validation(self):
        factory = lambda q: CentralizedCollisionTester(N, EPS, q=q)  # noqa: E731
        with pytest.raises(InvalidParameterError):
            empirical_sample_complexity(
                factory, N, EPS, trials=100, rng=0, sprt=True, sprt_max_trials=0
            )


class TestGraphFamilySweep:
    def test_families_share_probes_and_are_deterministic(self):
        from repro.stats import graph_family_complexity_sweep

        a = graph_family_complexity_sweep(
            ["complete", "matching"], 64, 0.6, trials=120, rng=4, sprt=True
        )
        b = graph_family_complexity_sweep(
            ["complete", "matching"], 64, 0.6, trials=120, rng=4, sprt=True
        )
        assert list(a) == ["complete", "matching"]
        for family in a:
            assert a[family].resource_star == b[family].resource_star
            assert a[family].curve == b[family].curve
        # Dense K_q beats the pairwise-disjoint matching at equal (n, ε).
        assert a["complete"].resource_star <= a["matching"].resource_star

    def test_per_family_run_matches_standalone_search(self):
        from repro.core.graphs import graph_tester_factory
        from repro.stats import (
            empirical_sample_complexity,
            graph_family_complexity_sweep,
        )

        swept = graph_family_complexity_sweep(
            ["cycle"], 64, 0.6, trials=120, rng=7, sprt=True
        )["cycle"]
        from repro.engine import derive_root_entropy

        alone = empirical_sample_complexity(
            graph_tester_factory("cycle", 64, 0.6),
            n=64,
            epsilon=0.6,
            trials=120,
            rng=derive_root_entropy(7),
            sprt=True,
        )
        assert swept.resource_star == alone.resource_star
        assert swept.curve == alone.curve

    def test_rejects_empty_family_list(self):
        from repro.stats import graph_family_complexity_sweep

        with pytest.raises(InvalidParameterError):
            graph_family_complexity_sweep([], 64, 0.6)

    def test_rejects_duplicate_families(self):
        from repro.stats import graph_family_complexity_sweep

        with pytest.raises(InvalidParameterError, match="duplicate graph family"):
            graph_family_complexity_sweep(["complete", "complete"], 64, 0.6)


# --- The side short-circuit ------------------------------------------------
#
# ``_seeded_classify`` stops probing a level at its first failing side.  The
# oracle below is the classifier as it was before fixed-budget levels
# short-circuited: it probes every side it is given of a fixed-budget level
# (an SPRT level already stopped at its first wrong decision).  Verdicts, q*
# and passing-level rates must not depend on which of the two runs.

THRESHOLD = 2.0 / 3.0 + 0.04  # the searches' default target + margin


def _probe_every_side(tester, sides, threshold, trials, sprt, root_entropy, level):
    from repro.engine import estimate_acceptance

    success = 1.0
    for side, distribution in sides:
        seed = _probe_seed(root_entropy, level, side)
        if sprt is None:
            estimate = estimate_acceptance(tester, distribution, trials=trials, rng=seed)
        else:
            spec = sprt if side == 0 else replace(sprt, target=1.0 - threshold)
            estimate = estimate_acceptance(tester, distribution, sprt=spec, rng=seed)
        success = min(success, estimate.rate if side == 0 else 1.0 - estimate.rate)
        if sprt is not None and estimate.decided_above != (side == 0):
            return False, success
    if sprt is not None:
        return True, success
    return success >= threshold, success


def _with_oracle(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(complexity, "_seeded_classify", _probe_every_side)
        return run()


def _assert_same_search(short, full):
    assert short.resource_star == full.resource_star
    assert (short.bracket_low, short.bracket_high) == (full.bracket_low, full.bracket_high)
    assert list(short.curve) == list(full.curve)  # same levels, same order
    for level, rate in full.curve.items():
        if rate >= THRESHOLD:
            assert short.curve[level] == rate
        else:  # a failed level's rate is a min over fewer sides
            assert rate <= short.curve[level] < THRESHOLD


_FACTORIES = {
    "threshold": lambda n, k, eps: lambda q: ThresholdRuleTester(
        n, eps, k, q=q, calibration_trials=300
    ),
    "and": lambda n, k, eps: lambda q: AndRuleTester(
        n, eps, k, q=q, calibration_trials=300
    ),
    "centralized": lambda n, k, eps: lambda q: CentralizedCollisionTester(n, eps, q=q),
}


class TestShortCircuitEquivalence:
    @pytest.mark.parametrize("kind", sorted(_FACTORIES))
    @pytest.mark.parametrize("n, k, eps, seed", [(64, 4, 0.6, 0), (128, 8, 0.5, 5)])
    def test_search_matches_probe_every_side(self, monkeypatch, kind, n, k, eps, seed):
        def run():
            return empirical_sample_complexity(
                _FACTORIES[kind](n, k, eps), n, eps, trials=60, rng=seed
            )

        _assert_same_search(run(), _with_oracle(monkeypatch, run))

    def test_graph_family_sweep_matches_probe_every_side(self, monkeypatch):
        def run():
            return graph_family_complexity_sweep(
                ["complete", "cycle"], 64, 0.6, trials=60, rng=4
            )

        short, full = run(), _with_oracle(monkeypatch, run)
        assert list(short) == list(full)
        for family in full:
            _assert_same_search(short[family], full[family])


class _ScriptedTester:
    """A stand-in tester: ``script[side]`` is what a probe of that side
    returns — its acceptance rate on a fixed budget, its
    ``decided_above`` under an SPRT."""

    def __init__(self, n, script, relabel_invariant=False):
        self.n = n
        self.script = script
        self.relabel_invariant = relabel_invariant


ROOT, LEVEL, TRIALS = 1234, 7, 100
ALTERNATIVES = [two_level_distribution(16, 0.5), uniform(16), two_level_distribution(16, 0.8)]
SPEC = SprtSpec(target=THRESHOLD, margin=0.05, error_rate=0.05, max_trials=400)


@pytest.fixture
def probes(monkeypatch):
    """Every ``estimate_acceptance`` call, scripted by the stub tester."""
    calls = []

    def scripted(tester, distribution, *, trials=None, sprt=None, rng=None):
        side = rng.spawn_key[2]  # _probe_seed's (1, level, side)
        calls.append(
            {
                "side": side,
                "distribution": distribution,
                "trials": trials,
                "sprt": sprt,
                "seed": (rng.entropy, rng.spawn_key),
            }
        )
        value = tester.script[side]
        if sprt is None:
            return AcceptanceEstimate(rate=value, trials_used=trials, successes=0)
        return AcceptanceEstimate(rate=0.5, trials_used=64, successes=32, decided_above=value)

    monkeypatch.setattr(repro.engine, "estimate_acceptance", scripted)
    return calls


def _classify(classifier, script, sprt=None, alternatives=ALTERNATIVES, invariant=False):
    tester = _ScriptedTester(16, script, invariant)
    sides = probe_sides(16, alternatives)(tester)
    return classifier(tester, sides, THRESHOLD, TRIALS, sprt, ROOT, LEVEL)


def _expected_seed(side):
    seed = _probe_seed(ROOT, LEVEL, side)
    return (seed.entropy, seed.spawn_key)


class TestProbeCount:
    # Fixed-budget scripts: uniform's acceptance, then each alternative's.
    PASS = [0.9, 0.2, 0.1, 0.25]

    def test_passing_level_probes_every_side_in_order(self, probes):
        assert _classify(_seeded_classify, self.PASS) == (True, 0.75)
        assert [call["side"] for call in probes] == [0, 1, 2, 3]
        assert probes[0]["distribution"].pmf.tolist() == [1 / 16] * 16
        assert all(
            call["distribution"] is alt for call, alt in zip(probes[1:], ALTERNATIVES)
        )
        assert [call["seed"] for call in probes] == [_expected_seed(s) for s in range(4)]
        assert all(call["trials"] == TRIALS and call["sprt"] is None for call in probes)

    @pytest.mark.parametrize("failing", range(4))
    def test_failed_level_stops_at_its_first_failing_side(self, probes, failing):
        script = list(self.PASS)
        script[failing] = 0.5  # completeness 0.5, or soundness 0.5
        passed, rate = _classify(_seeded_classify, script)
        assert not passed and rate == 0.5
        assert [call["side"] for call in probes] == list(range(failing + 1))
        assert [call["seed"] for call in probes] == [
            _expected_seed(s) for s in range(failing + 1)
        ]

    @pytest.mark.parametrize("decisions", list(itertools.product([True, False], repeat=4)))
    def test_sprt_calls_are_unchanged(self, probes, decisions):
        verdict = _classify(_seeded_classify, list(decisions), SPEC)
        short = [dict(call) for call in probes]
        probes.clear()
        assert _classify(_probe_every_side, list(decisions), SPEC) == verdict
        assert short == probes
        assert short[0]["sprt"] == SPEC
        assert all(
            call["sprt"] == replace(SPEC, target=1.0 - THRESHOLD) for call in short[1:]
        )


# --- One alternative per sorted-pmf class --------------------------------
#
# Two random Paninski members and the two-level distribution share one
# probability multiset, {0.5/16, 1.5/16}; a relabel-invariant tester has
# the same acceptance law on all three.

SAME_LAW = default_far_distributions(16, 0.5, rng=3)


class TestAlternativeClasses:
    def test_invariant_passing_level_probes_uniform_and_one_alternative(self, probes):
        verdict = _classify(
            _seeded_classify, TestProbeCount.PASS, alternatives=SAME_LAW, invariant=True
        )
        assert verdict == (True, 0.8)
        assert [call["side"] for call in probes] == [0, 1]
        assert probes[1]["distribution"] is SAME_LAW[0]
        assert [call["seed"] for call in probes] == [_expected_seed(0), _expected_seed(1)]

    def test_non_invariant_tester_probes_every_side(self, probes):
        verdict = _classify(_seeded_classify, TestProbeCount.PASS, alternatives=SAME_LAW)
        assert verdict == (True, 0.75)
        assert [call["side"] for call in probes] == [0, 1, 2, 3]
        assert [call["seed"] for call in probes] == [_expected_seed(s) for s in range(4)]

    def test_distinct_multisets_are_all_kept(self, probes):
        verdict = _classify(_seeded_classify, TestProbeCount.PASS, invariant=True)
        assert verdict == (True, 0.75)
        assert [call["side"] for call in probes] == [0, 1, 2, 3]

    def test_class_members_keep_their_side_index(self):
        alternatives = [SAME_LAW[0], ALTERNATIVES[2], SAME_LAW[1], ALTERNATIVES[0]]
        tester = _ScriptedTester(16, None, relabel_invariant=True)
        sides = probe_sides(16, alternatives)(tester)
        assert [side for side, _ in sides] == [0, 1, 2]
        assert sides[2][1] is ALTERNATIVES[2]

    def test_ulp_drift_collapses_to_one_class(self):
        far = default_far_distributions(1000, 0.3, rng=0)
        # Normalising by an order-dependent sum leaves the sorted pmfs a
        # few ulps apart: not byte-equal, yet one multiset.
        assert len({np.sort(d.pmf).tobytes() for d in far}) > 1
        tester = _ScriptedTester(1000, None, relabel_invariant=True)
        assert [side for side, _ in probe_sides(1000, far)(tester)] == [0, 1]

    def test_tester_on_another_domain_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="search domain"):
            probe_sides(16, SAME_LAW)(_ScriptedTester(32, None, True))

    def test_invariant_search_probes_one_alternative_per_level(self, monkeypatch):
        sides = []
        real = complexity._seeded_classify

        def recorded(tester, probed, *args):
            sides.append([side for side, _ in probed])
            return real(tester, probed, *args)

        monkeypatch.setattr(complexity, "_seeded_classify", recorded)
        empirical_sample_complexity(
            lambda q: CentralizedCollisionTester(64, 0.6, q=q), 64, 0.6, trials=60, rng=2
        )
        assert sides and all(probed == [0, 1] for probed in sides)


def _e01_smoke(cache_dir, capsys, monkeypatch):
    """Run e01 at smoke scale on ``cache_dir``: (table, engine metrics, estimates)."""
    estimates = []
    real = repro.engine.estimate_acceptance

    def counted(*args, **kwargs):
        estimates.append(1)
        return real(*args, **kwargs)

    previous = get_engine()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(repro.engine, "estimate_acceptance", counted)
            argv = ["experiment", "e01", "--scale", "smoke", "--cache-dir", str(cache_dir)]
            assert main(argv) == 0
    finally:
        set_engine(previous)
    table, block = capsys.readouterr().out.split("-- engine metrics --")
    metrics = dict(
        line.strip().split(": ") for line in block.splitlines() if line.startswith("  ")
    )
    return table, {name: float(value) for name, value in metrics.items()}, len(estimates)


def _estimate_entries(cache_dir):
    return len([name for name in os.listdir(cache_dir) if name.startswith("accept-")])


class TestShortCircuitReplay:
    def test_cold_run_writes_one_entry_per_estimate_and_warm_run_replays(
        self, tmp_path, capsys, monkeypatch
    ):
        cold, cold_metrics, made = _e01_smoke(tmp_path, capsys, monkeypatch)
        assert made > 0 and cold_metrics["cache_hits"] == 0
        assert _estimate_entries(tmp_path) == cold_metrics["cache_misses"] == made
        warm, warm_metrics, _ = _e01_smoke(tmp_path, capsys, monkeypatch)
        assert warm == cold
        assert warm_metrics["cache_misses"] == 0
        assert warm_metrics["samples_drawn"] == 0

    def test_cache_written_by_probe_every_side_serves_a_short_circuited_run(
        self, tmp_path, capsys, monkeypatch
    ):
        full, _, full_estimates = _with_oracle(
            monkeypatch, lambda: _e01_smoke(tmp_path, capsys, monkeypatch)
        )
        short, metrics, short_estimates = _e01_smoke(tmp_path, capsys, monkeypatch)
        assert short == full
        assert short_estimates < full_estimates == _estimate_entries(tmp_path)
        assert metrics["cache_misses"] == 0
        assert metrics["samples_drawn"] == 0


def _every_side(n, alternatives):
    """The side list before alternatives were grouped into classes."""
    sides = [(0, uniform(n)), *enumerate(alternatives, start=1)]
    return lambda tester: sides


def _recording_seeds(record):
    """``_probe_seed``, noting each ``(root, level, side)`` it names."""
    real = complexity._probe_seed

    def seed(root_entropy, level, side):
        record((root_entropy, level, side))
        return real(root_entropy, level, side)

    return seed


class TestAlternativeClassReplay:
    def test_cache_written_by_every_side_classifier_serves_every_kept_probe(
        self, tmp_path, capsys, monkeypatch
    ):
        # Grouping moves q*, so the grouped search may visit levels the
        # every-side search never did; every probe at a level both visit
        # has the same seed and key, and must be a hit.
        old, new = set(), []
        with monkeypatch.context() as patch:
            patch.setattr(complexity, "probe_sides", _every_side)
            patch.setattr(complexity, "_probe_seed", _recording_seeds(old.add))
            _e01_smoke(tmp_path, capsys, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(complexity, "_probe_seed", _recording_seeds(new.append))
            _, metrics, estimates = _e01_smoke(tmp_path, capsys, monkeypatch)
        old_levels = {(root, level) for root, level, _ in old}
        fresh = [probe for probe in new if probe not in old]
        assert len(new) == estimates and len(new) < len(old)
        assert all((root, level) not in old_levels for root, level, _ in fresh)
        assert metrics["cache_misses"] == len(fresh)
        assert metrics["cache_hits"] == len(new) - len(fresh) > 0
        assert (metrics["samples_drawn"] == 0) == (not fresh)
