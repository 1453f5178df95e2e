"""Compare benchmark results of a parent commit and a change.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Each file is a ``run.py --out`` record; files are taken as (parent,
change) pairs, ideally run alternately.  One row per workload and
end-to-end metric shows each side's median and quartiles, the relative
change and a verdict under the metric's bound from ``BENCHMARK.json``:

* ``unresolved`` — a side's own spread (quartile distance over median)
  is wider than the bound, unless every change run beats every parent
  run (``better, all runs``);
* ``REGRESSION`` — the change's median is worse by more than the bound;
* ``GAIN`` — with at least 10 pairs, the change wins at least 9/10 of
  them (ties count for neither side) and the medians differ by more than
  the parent's quartile distance;
* ``within bound`` — otherwise;
* ``missing`` — a run failed and reports no figure for the metric.

With one pair, the spread comes from the runs inside each file: the timed
passes for ``ns_per_ref_sample``, the set-up samples for ``setup_s`` and
``setup_rss_mb``.  Exits 1 when any row is a regression or missing.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

from catalog import load_benchmark

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE = 0.9


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


#: Where a record keeps the runs behind each end-to-end metric's median.
WITHIN_FILE = {
    "ns_per_ref_sample": "pass_ns_per_ref_sample",
    "setup_s": "setup_samples",
    "setup_rss_mb": "setup_rss_samples",
}


def within_file_samples(record: Dict[str, Any], metric: str) -> List[float]:
    return list(record.get(WITHIN_FILE[metric]) or [])


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], bound: float, lower_is_better: bool, pairs: int
) -> Tuple[str, float]:
    sign = 1.0 if lower_is_better else -1.0
    p_med, p_q1, p_q3 = summary(parent)
    c_med, c_q1, c_q3 = summary(change)
    worse = sign * (c_med - p_med) / p_med
    spreads = [(p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med]
    if max(spreads) > bound:
        if max(sign * value for value in change) < min(sign * value for value in parent):
            return "better, all runs", worse
        return "unresolved", worse
    if worse > bound:
        return "REGRESSION", worse
    if pairs >= MIN_PAIRS_FOR_GAIN:
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        if wins >= WIN_SHARE * pairs and abs(c_med - p_med) > p_q3 - p_q1:
            return "GAIN", worse
    return "within bound", worse


def compare(paths: Sequence[str], benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    if len(paths) < 2 or len(paths) % 2:
        raise SystemExit("error: give PARENT.json CHANGE.json pairs")
    parents = [load(path)["workloads"] for path in paths[0::2]]
    changes = [load(path)["workloads"] for path in paths[1::2]]
    pairs = len(parents)
    workloads = [name for name in parents[0] if all(name in side for side in parents + changes)]
    rows = []
    for name in workloads:
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            if pairs == 1:
                parent = within_file_samples(parents[0][name], metric)
                change = within_file_samples(changes[0][name], metric)
            else:
                parent = [side[name]["end_to_end"].get(metric) for side in parents]
                change = [side[name]["end_to_end"].get(metric) for side in changes]
            if not parent or not change or None in parent + change:
                # A failed run reports no figure to compare.
                rows.append({"workload": name, "metric": metric, "unit": spec["unit"],
                             "bound": spec["bound"], "verdict": "missing"})
                continue
            result, worse = verdict(
                parent, change, spec["bound"], spec["better"] == "lower", pairs
            )
            rows.append({
                "workload": name,
                "metric": metric,
                "unit": spec["unit"],
                "parent": summary(parent),
                "change": summary(change),
                "worse_by": worse,
                "bound": spec["bound"],
                "verdict": result,
            })
    return rows


def main(argv: Sequence[str]) -> int:
    rows = compare(argv, load_benchmark())
    print(f"{'workload':<11} {'metric':<18} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'worse':>7} {'bound':>6}  verdict")
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:<11} {row['metric']:<18} {'':<30} {'':<30} {'':>7} "
                  f"{100 * row['bound']:>5.0f}%  missing")
            continue
        sides = [
            f"{m:.4g} [{q1:.4g}, {q3:.4g}] {row['unit']}"
            for m, q1, q3 in (row["parent"], row["change"])
        ]
        print(f"{row['workload']:<11} {row['metric']:<18} {sides[0]:<30} {sides[1]:<30} "
              f"{100 * row['worse_by']:>6.1f}% {100 * row['bound']:>5.0f}%  {row['verdict']}")
    return int(any(row["verdict"] in ("REGRESSION", "missing") for row in rows))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
