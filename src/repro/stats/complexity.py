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

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distributions.discrete import DiscreteDistribution, uniform
from ..distributions.families import PaninskiFamily
from ..exceptions import InvalidParameterError, SearchDivergedError
from ..rng import RngLike, ensure_rng

if TYPE_CHECKING:
    from ..engine import SprtSpec

#: A factory mapping a resource level (q or k) to a ready-to-run tester.
TesterFactory = Callable[[int], "object"]

#: One probe of a level: its side index and the distribution it samples.
Side = Tuple[int, DiscreteDistribution]


@dataclass
class SampleComplexityResult:
    """Outcome of an empirical resource-complexity search."""

    resource_star: int
    target: float
    #: Each probed level's success rate: ``min(completeness, soundness)``
    #: over every probed side for a passing level (one alternative per
    #: sorted-pmf class for a relabel-invariant tester, see
    #: :func:`probe_sides`), and over the sides probed up
    #: to the first failing one for a failed level, since both modes stop
    #: there (see :func:`_seeded_classify`).  The CLI curve plot and the
    #: ``SearchDivergedError`` "best" figure read these rates.
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
    """min(completeness, min-over-alternatives soundness) for one tester.

    The alternatives probed are those :func:`probe_sides` picks: one per
    sorted-pmf class for a relabel-invariant tester, all of them otherwise.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if not far_distributions:
        raise InvalidParameterError("need at least one far distribution")
    generator = ensure_rng(rng)
    success = 1.0
    for side, distribution in probe_sides(tester.n, far_distributions)(tester):
        rate = tester.acceptance_probability(distribution, trials, generator)
        success = min(success, rate if side == 0 else 1.0 - rate)
    return success


def probe_sides(
    n: int, alternatives: Sequence[DiscreteDistribution]
) -> Callable[[Any], List[Side]]:
    """The ``(side, distribution)`` pairs a tester's level probes.

    Side 0 is ``uniform(n)`` and side ``i`` the i-th alternative.  A
    tester whose verdicts do not change when the domain is relabelled
    (``relabel_invariant``) accepts equally often, in law, on every
    alternative with the same sorted pmf, so it probes only the first
    alternative of each such class; any other tester probes every side.
    Sorted pmfs are compared to a relative ``1e-12``, since normalising
    by an order-dependent sum leaves equal multisets a few ulps apart.
    Kept alternatives keep their side index, hence their
    :func:`_probe_seed` and cache key.

    The classes and ``uniform(n)`` are built here, once per search; the
    returned function picks the list for the tester built at a level.
    """
    base = uniform(n)
    every: List[Side] = [(0, base), *enumerate(alternatives, start=1)]
    classes: List[Side] = [(0, base)]
    keys: List[np.ndarray] = []
    for side, distribution in every[1:]:
        key = np.sort(distribution.pmf)
        if not any(
            seen.size == key.size and np.allclose(seen, key, rtol=1e-12, atol=0.0)
            for seen in keys
        ):
            keys.append(key)
            classes.append((side, distribution))

    def sides(tester: Any) -> List[Side]:
        if tester.n != n:
            raise InvalidParameterError(
                f"tester domain {tester.n} differs from the search domain {n}"
            )
        return classes if getattr(tester, "relabel_invariant", False) else every

    return sides


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


def _probe_seed(root_entropy: int, level: int, side: int) -> np.random.SeedSequence:
    """The seed of one probe: ``spawn_key=(1, level, side)`` off the root.

    Side 0 is the uniform distribution and side ``i`` the i-th
    alternative.  Every probe is thereby a pure function of its inputs —
    the engine's acceptance cache can memoise it across whole re-runs,
    and results are bit-identical across backends and chunk sizes.
    """
    return np.random.SeedSequence(entropy=root_entropy, spawn_key=(1, level, side))


def _seeded_classify(
    tester,
    sides: Sequence[Side],
    threshold: float,
    trials: int,
    sprt: Optional[SprtSpec],
    root_entropy: int,
    level: int,
) -> Tuple[bool, float]:
    """(passed, empirical success rate) for one resource level.

    Probes ``sides`` (from :func:`probe_sides`: uniform first, then the
    alternatives), in that order and each under its :func:`_probe_seed`,
    and stops at the first side that fails the level; a level where no
    side fails passes.  With a fixed budget (``sprt=None``) every probed
    side runs ``trials`` executions and a side fails once the running
    ``min(completeness, soundness)`` drops below ``threshold`` — the
    sides after it cannot lift that minimum, so the verdict is that of
    ``min(completeness, worst-case soundness) >= threshold``.

    With ``sprt`` the condition decomposes into per-side conditions —
    completeness ``>= threshold`` and each alternative's acceptance
    ``<= 1 - threshold`` — each classified by the engine's block-granular
    sequential test (:func:`repro.engine.estimate_acceptance`), and a
    side fails when it is decided the wrong way.  Easy levels resolve in
    one RNG block, so verdicts and trial counts are bit-deterministic
    across backends, worker counts and tile sizes.

    The returned rate is the minimum per-side estimate over the sides
    probed: over all of them for a passing level, over those up to the
    first failing side for a failed one (below ``threshold`` with a fixed
    budget, not necessarily the worst-case soundness).  SPRT estimates
    cover the trials the test actually used, so they are coarser than
    fixed-budget ones, by design.
    """
    from ..engine import estimate_acceptance

    success = 1.0
    for side, distribution in sides:
        seed = _probe_seed(root_entropy, level, side)
        if sprt is None:
            estimate = estimate_acceptance(tester, distribution, trials=trials, rng=seed)
        else:
            spec = sprt if side == 0 else replace(sprt, target=1.0 - threshold)
            estimate = estimate_acceptance(tester, distribution, sprt=spec, rng=seed)
        success = min(success, estimate.rate if side == 0 else 1.0 - estimate.rate)
        failed = success < threshold if sprt is None else estimate.decided_above != (side == 0)
        if failed:
            return False, success
    return True, success


def _search(
    passes: Callable[[int], bool],
    target: float,
    minimum: int,
    maximum: int,
    resolution_factor: float,
    curve: Optional[Dict[int, float]] = None,
) -> SampleComplexityResult:
    """Exponential bracketing + binary search over an integer resource.

    The search branches only on ``passes(level)``.  It never asks about a
    level twice: each bracketing step moves past every level probed so
    far, and each bisection midpoint lies strictly inside a bracket with
    no probed level in it.  ``curve`` is the caller's record of each
    probed level's rate (none by default); it is returned with the result
    and quoted when the search diverges.
    """
    curve = {} if curve is None else curve
    if minimum > maximum:
        raise InvalidParameterError(
            f"empty resource range: minimum {minimum} > maximum {maximum}"
        )
    low = high = minimum
    # Exponential growth until success (or the cap).
    while not passes(high):
        low = high
        high = min(maximum, max(high + 1, 2 * high))
        if high == low:
            best = f" (best {max(curve.values()):.3f})" if curve else ""
            raise SearchDivergedError(
                f"resource search hit cap {maximum} without reaching "
                f"target {target:.3f}{best}"
            )
    # Binary search down to the requested relative resolution.
    while high > low + 1 and high > int(low * resolution_factor):
        mid = (low + high) // 2
        if passes(mid):
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
    a fixed run would, while easy levels still stop after one RNG block.
    Both modes stop a level at its first failing side, so the SPRT's
    saving over a fixed budget is its early stopping alone, which
    benchmarks/test_bench_kernels.py measures.
    """
    if sprt_max_trials is not None:
        if sprt_max_trials < 1:
            raise InvalidParameterError(
                f"sprt_max_trials must be >= 1, got {sprt_max_trials}"
            )
        return int(sprt_max_trials)
    return max(1, 4 * int(trials))


def _resource_complexity(
    tester_factory: TesterFactory,
    n: int,
    epsilon: float,
    trials: int,
    target: float,
    margin: float,
    minimum: int,
    maximum: int,
    resolution_factor: float,
    far_distributions: Optional[Sequence[DiscreteDistribution]],
    rng: RngLike,
    sprt: bool,
    sprt_margin: float,
    sprt_error_rate: float,
    sprt_max_trials: Optional[int],
) -> SampleComplexityResult:
    """The search behind both public entry points, over one resource.

    The adversarial set is drawn from a generator spawned off the root
    entropy (``spawn_key=(0,)``), so the whole search — alternatives
    included — is a deterministic function of one integer.  Each probed
    level builds one tester, classifies it with :func:`_seeded_classify`
    on the sides :func:`probe_sides` picks for it, and records its rate
    in the curve under the probed level.
    """
    from ..engine import SprtSpec, derive_root_entropy

    root_entropy = derive_root_entropy(rng)
    if far_distributions is not None:
        alternatives = list(far_distributions)
    else:
        alt_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=root_entropy, spawn_key=(0,))
        )
        alternatives = default_far_distributions(n, epsilon, alt_rng)
    sides_for = probe_sides(n, alternatives)
    threshold = target + margin
    spec = None
    if sprt:
        spec = SprtSpec(
            target=threshold,
            margin=sprt_margin,
            error_rate=sprt_error_rate,
            max_trials=_default_sprt_budget(trials, sprt_max_trials),
        )
    curve: Dict[int, float] = {}

    def passes(level: int) -> bool:
        tester = tester_factory(level)
        passed, rate = _seeded_classify(
            tester,
            sides_for(tester),
            threshold,
            trials,
            spec,
            root_entropy,
            level,
        )
        curve[level] = rate
        return passed

    return _search(passes, threshold, minimum, maximum, resolution_factor, curve)


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
    return _resource_complexity(
        tester_factory,
        n,
        epsilon,
        trials,
        target,
        margin,
        q_min,
        q_max,
        resolution_factor,
        far_distributions,
        rng,
        sprt,
        sprt_margin,
        sprt_error_rate,
        sprt_max_trials,
    )


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
    sprt: bool = False,
    sprt_margin: float = 0.05,
    sprt_error_rate: float = 0.05,
    sprt_max_trials: Optional[int] = None,
) -> SampleComplexityResult:
    """Least k at which ``tester_factory(k)`` clears the success target.

    A factory that needs a valid k (e.g. even k for paired protocols)
    snaps the level itself; the curve is keyed by the probed k.
    ``sprt`` and friends behave exactly as in
    :func:`empirical_sample_complexity`.
    """
    return _resource_complexity(
        tester_factory,
        n,
        epsilon,
        trials,
        target,
        margin,
        k_min,
        k_max,
        resolution_factor,
        far_distributions,
        rng,
        sprt,
        sprt_margin,
        sprt_error_rate,
        sprt_max_trials,
    )


def _sweep(
    factories: Sequence[Tuple[str, TesterFactory]],
    noun: str,
    rng: RngLike,
    *,
    censor: bool,
    **search: Any,
) -> Dict[str, SampleComplexityResult]:
    """One q* search per ``(label, factory)``, all on one root entropy.

    Each search goes through the module-level name
    :func:`empirical_sample_complexity`.  Empty and duplicated labels are
    rejected up front.  A search that hits ``q_max`` raises
    :class:`SearchDivergedError` unless ``censor`` is set; it is then
    returned censored at the cap.
    """
    from ..engine import derive_root_entropy

    if not factories:
        raise InvalidParameterError(f"need at least one {noun}")
    seen = set()
    for label, _ in factories:
        if label in seen:
            raise InvalidParameterError(f"duplicate {noun} {label!r}")
        seen.add(label)
    root_entropy = derive_root_entropy(rng)
    results: Dict[str, SampleComplexityResult] = {}
    for label, factory in factories:
        try:
            results[label] = empirical_sample_complexity(
                factory, rng=root_entropy, **search
            )
        except SearchDivergedError:
            if not censor:
                raise
            results[label] = SampleComplexityResult(
                resource_star=int(search["q_max"]),
                target=search["target"] + search["margin"],
                censored=True,
            )
    return results


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

    factories = [
        (family, graph_tester_factory(family, n, epsilon, mode=mode))
        for family in families
    ]
    return _sweep(
        factories,
        "graph family",
        rng,
        censor=False,
        n=n,
        epsilon=epsilon,
        trials=trials,
        target=target,
        margin=margin,
        q_min=q_min,
        q_max=q_max,
        resolution_factor=resolution_factor,
        far_distributions=far_distributions,
        sprt=sprt,
        sprt_margin=sprt_margin,
        sprt_error_rate=sprt_error_rate,
        sprt_max_trials=sprt_max_trials,
    )


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

    def budget_factory(buckets: Optional[int]) -> TesterFactory:
        return lambda q: StreamingCollisionTester(n, epsilon, q=q, num_buckets=buckets)

    factories = [
        ("exact" if budget is None else f"b{int(budget)}", budget_factory(budget))
        for budget in budgets
    ]
    return _sweep(
        factories,
        "memory budget",
        rng,
        censor=True,
        n=n,
        epsilon=epsilon,
        trials=trials,
        target=target,
        margin=margin,
        q_min=q_min,
        q_max=q_max,
        resolution_factor=resolution_factor,
        far_distributions=far_distributions,
        sprt=sprt,
        sprt_margin=sprt_margin,
        sprt_error_rate=sprt_error_rate,
        sprt_max_trials=sprt_max_trials,
    )
