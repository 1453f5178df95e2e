"""Correctness checks on the rows each benchmark pass produces.

A sweep point fails when

* its pass raised (every point of that pass fails);
* its q* lies outside ×/÷2 of the seed-independent reference in
  ``references.json`` (e01: every row's ``q_star``; e21: only the exact
  mode's ``exact_q_star``);
* an e01 q* falls below its Theorem 1.1 ``lower_bound``;
* its pass's rows differ from the reference pass's rows (the determinism
  contract: every pass of one invocation runs the same grid on the same
  seed, so every pass must return identical rows).

The band is deliberately wide: seeds 0-9 move the e01 k=4 point between
192 and 272, and a sampler change that alters the draw order must still
pass.  Whether e21's censored budgets form the tightest-budget suffix is
reported but not failed: seeds 3, 5 and 6 of the small grid censor a
middle budget while the tightest one resolves, so it is a statistical
property, not an invariant.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

#: q* may differ from its reference by at most this factor either way.
BAND = 2.0


def load_references() -> Dict[str, Any]:
    with open(REFERENCES_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def reference_q_stars(experiment: str, scale: str, references: Dict[str, Any]) -> List[int]:
    return list(references["q_star"][experiment][scale])


def _checked_q_star(experiment: str, row: Dict[str, Any]) -> int:
    return int(row["q_star"] if experiment == "e01" else row["exact_q_star"])


def failed_points(
    experiment: str,
    rows: Optional[Sequence[Dict[str, Any]]],
    points: int,
    reference_q: Sequence[int],
    reference_rows: Optional[Sequence[Dict[str, Any]]] = None,
) -> List[int]:
    """Indices of the failed points of one pass.

    ``rows`` is ``None`` when the pass raised.  ``reference_rows`` are the
    rows of the invocation's first pass; a pass that disagrees with them
    fails in every point.
    """
    if rows is None or len(rows) != points:
        return list(range(points))
    if reference_rows is not None and list(rows) != list(reference_rows):
        return list(range(points))
    failed = []
    for index, (row, reference) in enumerate(zip(rows, reference_q)):
        q_star = _checked_q_star(experiment, row)
        out_of_band = not reference / BAND <= q_star <= reference * BAND
        below_theorem = experiment == "e01" and q_star < row["lower_bound"]
        if out_of_band or below_theorem:
            failed.append(index)
    return failed


def censoring_not_suffix(rows: Sequence[Dict[str, Any]], budgets: Sequence[Any]) -> int:
    """e21 rows whose censored budgets are not a tightest-budget suffix."""
    labels = ["exact" if budget is None else f"b{budget}" for budget in budgets]
    count = 0
    for row in rows:
        flags = [bool(row[f"{label}_censored"]) for label in labels]
        count += flags != sorted(flags)
    return count
