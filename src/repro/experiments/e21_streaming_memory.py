"""E21 — the memory/sample tradeoff of streaming collision testing.

The streaming layer (:mod:`repro.core.streaming`) runs the collision
tester in ``O(B)`` state by hashing the domain into ``B`` buckets
(:func:`~repro.core.streaming.sketch_buckets`).  Compression is not
free: bucketing contracts the L1 distance of an ε-far alternative to
roughly ``ε·√(B/n)``, so as the memory budget shrinks the empirical
sample complexity q* must grow — and below some floor the sketch can no
longer distinguish the adversarial inputs at all, which the search
reports as a *censored* point (``q* = q_max``) rather than a number.
The floor is structural, not statistical: hashing breaks the
permutation-invariance that makes the two-level distribution an exact
calibration proxy for the whole hard family, so under a tight budget a
specific adversary's *bucketed* collision mean can land on the accept
side of the cut — no number of samples rejects it.

This experiment sweeps q*(budget) at fixed (n, ε): the exact tester
(``B = n``, bit-identical to the batch collision tester) anchors the
curve, shrinking bucket counts trace the memory/accuracy tradeoff, and
censored budgets locate the memory floor.  All budgets are searched
against the same far distributions on shared probe seeds (one root
entropy per point), so the per-budget curves are directly comparable
and bit-deterministic across engine backends and worker counts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.streaming import STATE_SLACK_BYTES
from ..stats.complexity import streaming_memory_complexity_sweep
from .harness import ExperimentSpec
from .records import ExperimentResult


def _label(budget: Optional[int]) -> str:
    return "exact" if budget is None else f"b{budget}"


def _state_bytes(budget: Optional[int], n: int) -> int:
    # StreamingCollisionTester state: 8·(B+1) for histogram + pair
    # count, plus the bookkeeping slack; exact mode has B = n.
    buckets = n if budget is None else budget
    return 8 * (buckets + 1) + STATE_SLACK_BYTES


def _sweep(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One point per universe size; every memory budget measured there."""
    return [{"n": n} for n in params["n_sweep"]]


def _point(point: Dict[str, Any], params: Dict[str, Any], rng) -> Dict[str, Any]:
    n, eps = int(point["n"]), params["eps"]
    results = streaming_memory_complexity_sweep(
        params["budgets"],
        n=n,
        epsilon=eps,
        trials=params["trials"],
        q_max=params["q_max"],
        rng=rng,
        sprt=True,
        sprt_max_trials=params["trials"],
    )
    row: Dict[str, Any] = {"n": n, "eps": eps}
    for budget in params["budgets"]:
        label = _label(budget)
        result = results[label]
        row[f"{label}_q_star"] = result.resource_star
        row[f"{label}_censored"] = bool(result.censored)
        row[f"{label}_state_bytes"] = _state_bytes(budget, n)
    return row


def _fold(
    result: ExperimentResult,
    params: Dict[str, Any],
    points: List[Dict[str, Any]],
    payloads: List[Any],
) -> None:
    for row in payloads:
        result.add_row(**row)

    labels = [_label(budget) for budget in params["budgets"]]
    # Budgets are listed largest-first (exact, then shrinking B): on
    # each row the uncensored q* prefix should be non-decreasing.
    monotone = True
    censored_total = 0
    for row in result.rows:
        stars = [
            row[f"{label}_q_star"]
            for label in labels
            if not row[f"{label}_censored"]
        ]
        monotone = monotone and all(
            a <= b for a, b in zip(stars, stars[1:])
        )
        censored_total += sum(
            1 for label in labels if row[f"{label}_censored"]
        )
    result.summary["q_star_monotone_in_shrinking_budget"] = monotone
    result.summary["censored_budget_points"] = censored_total

    # The memory floor should be a *floor*: on each row the censored
    # budgets must form a suffix of the shrinking-budget order (once a
    # budget is too small to test, every smaller one is too).
    confined = True
    for row in result.rows:
        flags = [bool(row[f"{label}_censored"]) for label in labels]
        confined = confined and flags == sorted(flags)
    result.summary["censoring_confined_to_tightest_budgets"] = confined

    last = result.rows[-1]
    exact_star = last["exact_q_star"]
    uncensored = [
        label
        for label in labels
        if label != "exact" and not last[f"{label}_censored"]
    ]
    if uncensored and exact_star:
        tightest = uncensored[-1]
        result.summary["tightest_uncensored_budget_at_largest_n"] = tightest
        result.summary["its_q_star_over_exact"] = (
            last[f"{tightest}_q_star"] / exact_star
        )


SPEC = ExperimentSpec(
    experiment_id="e21",
    title="Streaming memory budgets: q* vs sketch size, with memory floor",
    scales={
        "smoke": {
            "n_sweep": [64],
            "budgets": [None, 48, 16],
            "eps": 0.6,
            "trials": 40,
            "q_max": 1_500,
        },
        "small": {
            "n_sweep": [64, 256],
            "budgets": [None, 64, 32, 16],
            "eps": 0.5,
            "trials": 120,
            "q_max": 8_000,
        },
        "paper": {
            "n_sweep": [256, 1024],
            "budgets": [None, 128, 64, 32, 16],
            "eps": 0.5,
            "trials": 240,
            "q_max": 24_000,
        },
    },
    sweep=_sweep,
    point=_point,
    fold=_fold,
)
