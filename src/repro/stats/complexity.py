"""Empirical sample-complexity search.

The paper's theorems are statements about q* — the least per-player sample
count at which some tester succeeds with 2/3 confidence.  This module
measures q* for *concrete* testers by Monte Carlo:

1. evaluate ``success(q) = min(completeness, worst-case soundness)`` at a
   given q (both sides estimated from ``trials`` protocol executions);
2. exponentially grow q until success clears the target;
3. binary-search the bracket down to the requested resolution.

The same machinery searches over the number of players k (for the
single-sample and learning experiments) via
:func:`empirical_player_complexity`.

Monte Carlo noise is handled by a success margin: the search asks for
``target + margin`` so that a q declared sufficient is genuinely above
target with high probability.  Results carry the full evaluation curve so
benchmarks can report it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..distributions.discrete import DiscreteDistribution, uniform
from ..distributions.families import PaninskiFamily
from ..exceptions import InvalidParameterError, SearchDivergedError
from ..rng import RngLike, ensure_rng

#: A factory mapping a resource level (q or k) to a ready-to-run tester.
TesterFactory = Callable[[int], "object"]


@dataclass
class SampleComplexityResult:
    """Outcome of an empirical resource-complexity search."""

    resource_star: int
    target: float
    curve: Dict[int, float] = field(default_factory=dict)
    bracket_low: int = 0
    bracket_high: int = 0
    #: True when the search hit its resource cap without reaching the
    #: target — ``resource_star`` is then the cap, a lower bound on the
    #: true q* (used by the memory-budget sweep, where an under-sized
    #: sketch can be *unable* to distinguish some adversarial input).
    censored: bool = False

    def __repr__(self) -> str:
        star = f"resource*={self.resource_star}"
        if self.censored:
            star += " (censored at cap)"
        return (
            f"SampleComplexityResult({star}, "
            f"target={self.target:.3f}, evaluated={sorted(self.curve)})"
        )


def success_at(
    tester,
    far_distributions: Sequence[DiscreteDistribution],
    trials: int,
    rng: RngLike = None,
) -> float:
    """min(completeness, min-over-alternatives soundness) for one tester."""
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if not far_distributions:
        raise InvalidParameterError("need at least one far distribution")
    generator = ensure_rng(rng)
    success = tester.acceptance_probability(uniform(tester.n), trials, generator)
    for far in far_distributions:
        success = min(success, 1.0 - tester.acceptance_probability(far, trials, generator))
    return success


def adversarial_domain(n: int) -> int:
    """The even sub-domain the hard-instance constructions live on.

    The Paninski family and the two-level distribution pair up domain
    elements, so they require an even universe.  For odd ``n`` they are
    built on ``n - 1`` outcomes; callers must embed them back into the
    tester's full ``n``-element domain (zero mass on the last element)
    so tester and alternatives agree on the universe size.
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    return n - (n % 2)


def default_far_distributions(
    n: int, epsilon: float, rng: RngLike = None, num_paninski: int = 2
) -> List[DiscreteDistribution]:
    """The default adversarial set: random Paninski members + two-level.

    Every returned distribution lives on the **full** ``n``-element
    domain.  For odd ``n`` the pair-based constructions are built on the
    even sub-domain :func:`adversarial_domain` and explicitly padded back
    to ``n`` with a zero-mass element (identical sampling draws, matching
    domain) — previously the domain silently shrank to ``n - 1`` while
    the tester kept ``n``.
    """
    from ..distributions.generators import two_level_distribution

    generator = ensure_rng(rng)
    even_n = adversarial_domain(n)
    family = PaninskiFamily(even_n, epsilon)
    members = [
        family.sample_distribution(generator).padded_to(n)
        for _ in range(num_paninski)
    ]
    members.append(two_level_distribution(even_n, epsilon).padded_to(n))
    return members


def _seeded_success(
    tester,
    alternatives: Sequence[DiscreteDistribution],
    trials: int,
    root_entropy: int,
    level: int,
) -> float:
    """Cache-aware success evaluation at one resource level.

    Each (level, side) probe gets its own seed derived from the search's
    root entropy via ``SeedSequence(root, spawn_key=(1, level, side))``,
    which makes every probe a pure function of its inputs — the engine's
    acceptance cache can then memoise it across bisection revisits and
    whole re-runs, and results are bit-identical across backends and
    chunk sizes.
    """
    from ..engine import estimate_acceptance

    def probe_seed(side: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=root_entropy, spawn_key=(1, level, side))

    success = estimate_acceptance(
        tester, uniform(tester.n), trials=trials, rng=probe_seed(0)
    ).rate
    for index, far in enumerate(alternatives):
        rate = estimate_acceptance(
            tester, far, trials=trials, rng=probe_seed(index + 1)
        ).rate
        success = min(success, 1.0 - rate)
    return success


def _seeded_classify(
    tester,
    alternatives: Sequence[DiscreteDistribution],
    threshold: float,
    sprt_margin: float,
    sprt_error_rate: float,
    sprt_max_trials: int,
    root_entropy: int,
    level: int,
) -> tuple:
    """(passed, empirical success rate) for one level, SPRT per side.

    ``success >= threshold`` decomposes into per-side conditions —
    completeness ``>= threshold`` and each alternative's acceptance
    ``<= 1 - threshold`` — each classified by the engine's block-granular
    sequential test (:func:`repro.engine.estimate_acceptance`).  Easy
    levels resolve in one RNG block; sides are probed in a fixed order
    with a short-circuit on the first failure, and seeds reuse the exact
    spawn keys of :func:`_seeded_success`, so verdicts and trial counts
    are bit-deterministic across backends, worker counts and tile sizes.

    The returned rate is the minimum per-side estimate over the trials
    the SPRT actually used (coarser than a fixed-budget estimate, by
    design).
    """
    from ..engine import SprtSpec, estimate_acceptance

    def probe_seed(side: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=root_entropy, spawn_key=(1, level, side))

    completeness_spec = SprtSpec(
        target=threshold,
        margin=sprt_margin,
        error_rate=sprt_error_rate,
        max_trials=sprt_max_trials,
    )
    estimate = estimate_acceptance(
        tester, uniform(tester.n), sprt=completeness_spec, rng=probe_seed(0)
    )
    success = estimate.rate
    if not estimate.decided_above:
        return False, success
    soundness_spec = SprtSpec(
        target=1.0 - threshold,
        margin=sprt_margin,
        error_rate=sprt_error_rate,
        max_trials=sprt_max_trials,
    )
    for index, far in enumerate(alternatives):
        far_estimate = estimate_acceptance(
            tester, far, sprt=soundness_spec, rng=probe_seed(index + 1)
        )
        success = min(success, 1.0 - far_estimate.rate)
        if far_estimate.decided_above:
            return False, success
    return True, success


def _search_inputs(
    rng: RngLike,
    n: int,
    epsilon: float,
    far_distributions: Optional[Sequence[DiscreteDistribution]],
) -> tuple:
    """(root_entropy, alternatives) shared by the resource searches.

    The adversarial set is drawn from a generator spawned off the root
    entropy (``spawn_key=(0,)``), so the whole search — alternatives
    included — is a deterministic function of one integer.
    """
    from ..engine import derive_root_entropy

    root_entropy = derive_root_entropy(rng)
    if far_distributions is not None:
        alternatives = list(far_distributions)
    else:
        alt_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=root_entropy, spawn_key=(0,))
        )
        alternatives = default_far_distributions(n, epsilon, alt_rng)
    return root_entropy, alternatives


def _search(
    evaluate: Callable[[int], float],
    target: float,
    minimum: int,
    maximum: int,
    resolution_factor: float,
) -> SampleComplexityResult:
    """Exponential bracketing + binary search over an integer resource."""
    curve: Dict[int, float] = {}

    def cached(level: int) -> float:
        if level not in curve:
            curve[level] = evaluate(level)
        return curve[level]

    level = minimum
    if cached(level) >= target:
        return SampleComplexityResult(
            resource_star=level,
            target=target,
            curve=curve,
            bracket_low=level,
            bracket_high=level,
        )
    # Exponential growth until success (or the cap).
    low = level
    high = level
    while cached(high) < target:
        low = high
        high = min(maximum, max(high + 1, int(math.ceil(high * 2))))
        if high == low:
            raise SearchDivergedError(
                f"resource search hit cap {maximum} without reaching "
                f"target {target:.3f} (best {max(curve.values()):.3f})"
            )
    # Binary search down to the requested relative resolution.
    while high > low + 1 and high > int(low * resolution_factor):
        mid = (low + high) // 2
        if cached(mid) >= target:
            high = mid
        else:
            low = mid
    return SampleComplexityResult(
        resource_star=high,
        target=target,
        curve=curve,
        bracket_low=low,
        bracket_high=high,
    )


def _search_classified(
    classify: Callable[[int], bool],
    target: float,
    minimum: int,
    maximum: int,
    resolution_factor: float,
    curve: Dict[int, float],
) -> SampleComplexityResult:
    """The :func:`_search` skeleton driven by boolean SPRT verdicts.

    ``classify`` is expected to record each level's empirical rate in
    ``curve`` as a side effect; the search itself branches only on the
    verdicts (memoised so no level is ever re-classified).
    """
    verdicts: Dict[int, bool] = {}

    def cached(level: int) -> bool:
        if level not in verdicts:
            verdicts[level] = classify(level)
        return verdicts[level]

    level = minimum
    if cached(level):
        return SampleComplexityResult(
            resource_star=level,
            target=target,
            curve=curve,
            bracket_low=level,
            bracket_high=level,
        )
    low = level
    high = level
    while not cached(high):
        low = high
        high = min(maximum, max(high + 1, int(math.ceil(high * 2))))
        if high == low:
            best = f" (best {max(curve.values()):.3f})" if curve else ""
            raise SearchDivergedError(
                f"resource search hit cap {maximum} without reaching "
                f"target {target:.3f}{best}"
            )
    while high > low + 1 and high > int(low * resolution_factor):
        mid = (low + high) // 2
        if cached(mid):
            high = mid
        else:
            low = mid
    return SampleComplexityResult(
        resource_star=high,
        target=target,
        curve=curve,
        bracket_low=low,
        bracket_high=high,
    )


def _default_sprt_budget(trials: int, sprt_max_trials: Optional[int]) -> int:
    """The sequential trial cap: explicit, or 4× the fixed budget.

    The 4× headroom lets near-threshold levels gather more evidence than
    a fixed run would, while easy levels still stop after one RNG block —
    the net effect on realistic searches is a large trial saving (see
    benchmarks/test_bench_kernels.py).
    """
    if sprt_max_trials is not None:
        if sprt_max_trials < 1:
            raise InvalidParameterError(
                f"sprt_max_trials must be >= 1, got {sprt_max_trials}"
            )
        return int(sprt_max_trials)
    return max(1, 4 * int(trials))


def empirical_sample_complexity(
    tester_factory: TesterFactory,
    n: int,
    epsilon: float,
    trials: int = 300,
    target: float = 2.0 / 3.0,
    margin: float = 0.04,
    q_min: int = 2,
    q_max: int = 1_000_000,
    resolution_factor: float = 1.10,
    far_distributions: Optional[Sequence[DiscreteDistribution]] = None,
    rng: RngLike = None,
    sprt: bool = False,
    sprt_margin: float = 0.05,
    sprt_error_rate: float = 0.05,
    sprt_max_trials: Optional[int] = None,
) -> SampleComplexityResult:
    """Least q at which ``tester_factory(q)`` clears the success target.

    Parameters
    ----------
    tester_factory:
        Maps a per-player sample count q to a tester exposing
        ``acceptance_probability`` and ``n``.
    margin:
        Added to the 2/3 target to absorb Monte Carlo noise.
    resolution_factor:
        Stop refining once the bracket is within this multiplicative
        factor (scaling experiments only need exponents, not exact q*).
    sprt:
        Classify each level with the engine's block-granular sequential
        test instead of paying the fixed ``trials`` budget.  Easy levels
        (far from the target) resolve in a single RNG block; only
        near-threshold levels approach ``sprt_max_trials`` (default 4×
        ``trials``).  ``sprt_margin``/``sprt_error_rate`` are Wald's
        indifference half-width and two-sided error bound.

    Every (q, distribution) probe runs under a seed derived from the
    search's root entropy, so results are reproducible bit-for-bit across
    engine backends and chunk sizes — in sequential mode *including* the
    per-level ``trials_used``, since stopping decisions happen only at
    RNG-block boundaries — and a warm acceptance cache replays the whole
    search without a single protocol execution.
    """
    root_entropy, alternatives = _search_inputs(rng, n, epsilon, far_distributions)
    threshold = target + margin

    if sprt:
        budget = _default_sprt_budget(trials, sprt_max_trials)
        curve: Dict[int, float] = {}

        def classify(q: int) -> bool:
            tester = tester_factory(q)
            passed, rate = _seeded_classify(
                tester,
                alternatives,
                threshold,
                sprt_margin,
                sprt_error_rate,
                budget,
                root_entropy,
                q,
            )
            curve[q] = rate
            return passed

        return _search_classified(
            classify, threshold, q_min, q_max, resolution_factor, curve
        )

    def evaluate(q: int) -> float:
        tester = tester_factory(q)
        return _seeded_success(tester, alternatives, trials, root_entropy, q)

    return _search(evaluate, threshold, q_min, q_max, resolution_factor)


def empirical_sample_complexity_sequential(
    tester_factory: TesterFactory,
    n: int,
    epsilon: float,
    target: float = 2.0 / 3.0,
    margin: float = 0.05,
    error_rate: float = 0.05,
    q_min: int = 2,
    q_max: int = 1_000_000,
    resolution_factor: float = 1.10,
    batch_size: int = 60,
    max_trials_per_level: int = 4000,
    far_distributions: Optional[Sequence[DiscreteDistribution]] = None,
    rng: RngLike = None,
) -> SampleComplexityResult:
    """SPRT-accelerated variant of :func:`empirical_sample_complexity`.

    Thin wrapper over ``empirical_sample_complexity(..., sprt=True)``.
    Each level is classified above/below the target per side
    (completeness, then each adversarial alternative) by the engine's
    sequential test, stopping as soon as the evidence is decisive.  Easy
    levels resolve in a single RNG block; only near-threshold levels pay
    the full budget.

    ``batch_size`` is accepted for backwards compatibility but ignored:
    stop/continue decisions now happen only at the engine's RNG-block
    boundaries, which is what makes each level's verdict *and* trial
    count bit-deterministic across backends, worker counts and tile
    sizes (see docs/architecture.md).

    The recorded curve holds the *empirical success rate over the trials
    the SPRT actually used* at each level (coarser than the fixed-budget
    variant's estimates, by design).
    """
    del batch_size  # stopping is block-granular now; see docstring
    return empirical_sample_complexity(
        tester_factory,
        n,
        epsilon,
        target=target,
        margin=0.0,
        q_min=q_min,
        q_max=q_max,
        resolution_factor=resolution_factor,
        far_distributions=far_distributions,
        rng=rng,
        sprt=True,
        sprt_margin=margin,
        sprt_error_rate=error_rate,
        sprt_max_trials=max_trials_per_level,
    )


def classify_cached(level: int, curve: Dict[int, float], classify) -> bool:
    """Classify a level once; repeat queries reuse the stored SPRT verdict.

    The empirical rate lands in ``curve``; the boolean verdict (which is
    what the search branches on) is memoised on the classifier itself so a
    level is never re-tested.
    """
    cache = getattr(classify, "_verdicts", None)
    if cache is None:
        cache = {}
        classify._verdicts = cache
    if level not in cache:
        cache[level] = classify(level)
    return cache[level]


def graph_family_complexity_sweep(
    families: Sequence[str],
    n: int,
    epsilon: float,
    trials: int = 300,
    target: float = 2.0 / 3.0,
    margin: float = 0.04,
    q_min: int = 2,
    q_max: int = 1_000_000,
    resolution_factor: float = 1.10,
    far_distributions: Optional[Sequence[DiscreteDistribution]] = None,
    rng: RngLike = None,
    mode: str = "edges",
    sprt: bool = False,
    sprt_margin: float = 0.05,
    sprt_error_rate: float = 0.05,
    sprt_max_trials: Optional[int] = None,
) -> Dict[str, SampleComplexityResult]:
    """q* of every requested comparison-graph family, on shared probes.

    For each family name registered in
    :data:`repro.core.graphs.GRAPH_FAMILIES` this runs
    :func:`empirical_sample_complexity` over
    :func:`repro.core.graphs.graph_tester_factory` — the probed level is
    the number of sample slots q, snapped to the family's nearest valid
    size (even for matchings, ``q > d`` with ``q·d`` even for regular
    graphs) before the graph is built.

    One root entropy is derived up front and shared by every family's
    search, so all families face the *same* adversarial alternatives and
    the same per-level probe seeds: the per-family q* values are directly
    comparable, bit-deterministic across engine backends / worker counts
    / tile sizes, and replayable from a warm acceptance cache (each
    probe's key includes the graph's family and edge-structure hash, so
    curves never collide across families).  Returns ``{family: result}``
    in the order given.
    """
    from ..core.graphs import graph_tester_factory
    from ..engine import derive_root_entropy

    if not families:
        raise InvalidParameterError("need at least one graph family")
    root_entropy = derive_root_entropy(rng)
    results: Dict[str, SampleComplexityResult] = {}
    for family in families:
        results[family] = empirical_sample_complexity(
            graph_tester_factory(family, n, epsilon, mode=mode),
            n=n,
            epsilon=epsilon,
            trials=trials,
            target=target,
            margin=margin,
            q_min=q_min,
            q_max=q_max,
            resolution_factor=resolution_factor,
            far_distributions=far_distributions,
            rng=root_entropy,
            sprt=sprt,
            sprt_margin=sprt_margin,
            sprt_error_rate=sprt_error_rate,
            sprt_max_trials=sprt_max_trials,
        )
    return results


def streaming_memory_complexity_sweep(
    budgets: Sequence[Optional[int]],
    n: int,
    epsilon: float,
    trials: int = 300,
    target: float = 2.0 / 3.0,
    margin: float = 0.04,
    q_min: int = 2,
    q_max: int = 1_000_000,
    resolution_factor: float = 1.10,
    far_distributions: Optional[Sequence[DiscreteDistribution]] = None,
    rng: RngLike = None,
    sprt: bool = False,
    sprt_margin: float = 0.05,
    sprt_error_rate: float = 0.05,
    sprt_max_trials: Optional[int] = None,
) -> Dict[str, SampleComplexityResult]:
    """q* of the streaming collision tester per state-size budget.

    Each ``budget`` is a bucket count ``B`` for
    :class:`~repro.core.streaming.StreamingCollisionTester` — the
    tester's per-trial state is ``8·(B+1)`` bytes regardless of ``n`` —
    or ``None`` for the exact (``B = n``) statistic, whose verdicts are
    bit-identical to the batch collision tester.  As with
    :func:`graph_family_complexity_sweep`, one root entropy is derived
    up front and shared by every budget's search, so the q* values are
    directly comparable and bit-deterministic across engine backends and
    worker counts.  Returns ``{label: result}`` with labels ``"exact"``
    or ``"b<B>"``, in the order given.

    A budget can be *too small to test at all*: hashing the domain into
    few buckets may collapse an adversarial alternative onto the
    uniform distribution, so no sample count reaches the target.  Such
    searches are returned **censored** (``censored=True``,
    ``resource_star = q_max``) rather than raised — the sweep's point is
    exactly to locate that memory floor.
    """
    from ..core.streaming import StreamingCollisionTester
    from ..engine import derive_root_entropy

    if not budgets:
        raise InvalidParameterError("need at least one memory budget")
    root_entropy = derive_root_entropy(rng)
    results: Dict[str, SampleComplexityResult] = {}
    for budget in budgets:
        label = "exact" if budget is None else f"b{int(budget)}"
        if label in results:
            raise InvalidParameterError(f"duplicate memory budget {label!r}")

        def factory(q: int, _buckets: Optional[int] = budget) -> Any:
            return StreamingCollisionTester(
                n, epsilon, q=q, num_buckets=_buckets
            )

        try:
            results[label] = empirical_sample_complexity(
                factory,
                n=n,
                epsilon=epsilon,
                trials=trials,
                target=target,
                margin=margin,
                q_min=q_min,
                q_max=q_max,
                resolution_factor=resolution_factor,
                far_distributions=far_distributions,
                rng=root_entropy,
                sprt=sprt,
                sprt_margin=sprt_margin,
                sprt_error_rate=sprt_error_rate,
                sprt_max_trials=sprt_max_trials,
            )
        except SearchDivergedError:
            results[label] = SampleComplexityResult(
                resource_star=int(q_max),
                target=target + margin,
                censored=True,
            )
    return results


def empirical_player_complexity(
    tester_factory: TesterFactory,
    n: int,
    epsilon: float,
    trials: int = 300,
    target: float = 2.0 / 3.0,
    margin: float = 0.04,
    k_min: int = 2,
    k_max: int = 10_000_000,
    resolution_factor: float = 1.15,
    far_distributions: Optional[Sequence[DiscreteDistribution]] = None,
    rng: RngLike = None,
    level_rounding: Optional[Callable[[int], int]] = None,
    sprt: bool = False,
    sprt_margin: float = 0.05,
    sprt_error_rate: float = 0.05,
    sprt_max_trials: Optional[int] = None,
) -> SampleComplexityResult:
    """Least k at which ``tester_factory(k)`` clears the success target.

    ``level_rounding`` lets callers snap k to a valid value (e.g. even k
    for paired protocols) before the factory is invoked.  ``sprt`` and
    friends behave exactly as in :func:`empirical_sample_complexity`.
    """
    root_entropy, alternatives = _search_inputs(rng, n, epsilon, far_distributions)
    rounding = level_rounding if level_rounding is not None else (lambda k: k)
    threshold = target + margin

    if sprt:
        budget = _default_sprt_budget(trials, sprt_max_trials)
        curve: Dict[int, float] = {}

        def classify(k: int) -> bool:
            tester = tester_factory(rounding(k))
            passed, rate = _seeded_classify(
                tester,
                alternatives,
                threshold,
                sprt_margin,
                sprt_error_rate,
                budget,
                root_entropy,
                k,
            )
            curve[k] = rate
            return passed

        return _search_classified(
            classify, threshold, k_min, k_max, resolution_factor, curve
        )

    def evaluate(k: int) -> float:
        tester = tester_factory(rounding(k))
        return _seeded_success(tester, alternatives, trials, root_entropy, k)

    return _search(evaluate, threshold, k_min, k_max, resolution_factor)
