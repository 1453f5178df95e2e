# lint-path: repro/stats/streams_example.py
"""Golden fixture: RL603 fires on iteration over unordered sources.

The first two functions are the two bugs the rule family found in the
shipped tree, copied verbatim from before their fixes: the asymmetric
rate tester calibrated per ``q`` in set order (consuming
``calibration_rng`` in hash order), and the acceptance cache deleted
entries in directory-listing order.
"""
import functools
import glob
import os
from pathlib import Path

import numpy as np


def calibrate_by_rate(self, n, epsilon, calibration_trials, calibration_rng):
    from .testers import collision_bit_probabilities

    probabilities_by_q = {}
    thresholds_by_q = {}
    for q in set(self.sample_counts):  # expect: RL603
        pairs = q * (q - 1) / 2.0
        threshold = pairs * (1.0 + epsilon**2 / 2.0) / n
        thresholds_by_q[q] = threshold
        if q < 2:
            probabilities_by_q[q] = (0.0, 0.0)
        else:
            probabilities_by_q[q] = collision_bit_probabilities(
                n, q, epsilon, threshold, calibration_trials, calibration_rng
            )
    return probabilities_by_q, thresholds_by_q


class AcceptanceCache:
    def __init__(self, cache_dir):
        self.cache_dir = cache_dir

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for name in os.listdir(self.cache_dir):  # expect: RL603
            if name.startswith("accept-") and name.endswith(".json"):
                os.remove(os.path.join(self.cache_dir, name))
                removed += 1
        return removed


def float_total(samples):
    return sum(set(samples))  # expect: RL603


def directory_digest(root):
    return "|".join(os.listdir(root))  # expect: RL603


def joined_keys(keys):
    return ",".join(frozenset(keys))  # expect: RL603


def stacked_rows(rows):
    return np.concatenate({tuple(row) for row in rows})  # expect: RL603


def folded(values):
    return functools.reduce(lambda a, b: a * 0.5 + b, set(values))  # expect: RL603


def literal_loop(rng):
    return [rng.normal(mu) for mu in {0.0, 1.0, 2.0}]  # expect: RL603


def scanned(root):
    return [entry.name for entry in os.scandir(root)]  # expect: RL603


def matched(pattern):
    total = 0.0
    for path in glob.glob(pattern):  # expect: RL603
        total += os.path.getsize(path)
    for path in glob.iglob(pattern):  # expect: RL603
        total += os.path.getsize(path)
    return total


def walked(root):
    names = [child.name for child in Path(root).iterdir()]  # expect: RL603
    names += [child.name for child in Path(root).glob("*.json")]  # expect: RL603
    names += [child.name for child in Path(root).rglob("*.json")]  # expect: RL603
    return names


def draws_over_a_comprehension(rng, labels):
    return {label: rng.random() for label in {x.lower() for x in labels}}  # expect: RL603
