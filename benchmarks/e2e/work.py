"""Reference work of a pass: the samples the reference implementation draws
to find the q* values the pass reports.

A seed fixes the q* search path: across seeds one e01 search tops out at
q = 256 or 512 and e21 censors a different number of budgets, so the work
of a pass, and its wall time, move by 15-30% with the seed.  Dividing wall
time by the reference work makes passes on different seeds comparable
without hiding work a change adds or removes:

* the library's search (``repro.stats.complexity``) doubles q from
  :data:`Q_MIN` until the target is met and then bisects down to
  :data:`RESOLUTION`, so the levels it probes are a function of the q* it
  returns (:func:`search_ladder`); a censored search doubles up to q_max;
* at each level the reference implementation draws a fixed number of
  samples per unit of q in each search of the grid (e01 small, k = 16:
  160 trials x 16 players x 4 distributions + 6000 for calibration), kept
  in ``references.json`` as ``samples_per_q``.

A change that draws more samples, runs more trials or probes more levels
for the same q* makes a pass slower against the same reference work; a
change that draws fewer makes it faster.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple

#: Search parameters of ``empirical_sample_complexity`` as the grids use them.
Q_MIN = 2
RESOLUTION = 1.10
DEFAULT_Q_MAX = 1_000_000


def search_ladder(q_star: int, q_max: int, censored: bool) -> List[int]:
    """The levels a search probes to return ``q_star``, in probe order."""
    ladder = [Q_MIN]
    low = high = Q_MIN
    while censored or high < q_star:
        low, high = high, min(q_max, max(high + 1, int(math.ceil(high * 2))))
        if high == low:
            return ladder
        ladder.append(high)
    while high > low + 1 and high > int(low * RESOLUTION):
        mid = (low + high) // 2
        ladder.append(mid)
        if mid >= q_star:
            high = mid
        else:
            low = mid
    return ladder


def searches(
    experiment: str, rows: Sequence[Dict[str, Any]], params: Dict[str, Any]
) -> List[List[Tuple[int, bool]]]:
    """Per sweep point, ``(q*, censored)`` of each of its searches."""
    if experiment == "e01":
        return [[(int(row["q_star"]), False)] for row in rows]
    labels = ["exact" if budget is None else f"b{budget}" for budget in params["budgets"]]
    return [
        [(int(row[f"{label}_q_star"]), bool(row[f"{label}_censored"])) for label in labels]
        for row in rows
    ]


def ladder_sums(
    experiment: str, rows: Sequence[Dict[str, Any]], params: Dict[str, Any]
) -> List[List[int]]:
    """Per sweep point, the summed probed q of each of its searches."""
    q_max = int(params.get("q_max", DEFAULT_Q_MAX))
    return [
        [sum(search_ladder(q_star, q_max, censored)) for q_star, censored in point]
        for point in searches(experiment, rows, params)
    ]


def reference_samples(
    experiment: str,
    rows: Sequence[Dict[str, Any]],
    params: Dict[str, Any],
    samples_per_q: Sequence[float],
) -> List[float]:
    """Per sweep point, the samples the reference implementation draws in
    its searches; ``samples_per_q`` lists one weight per search."""
    sums = ladder_sums(experiment, rows, params)
    if sum(map(len, sums)) != len(samples_per_q):
        raise ValueError(f"expected one samples_per_q weight per search of {experiment}")
    weights = iter(samples_per_q)
    return [sum(next(weights) * total for total in point) for point in sums]
