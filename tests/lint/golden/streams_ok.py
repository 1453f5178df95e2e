# lint-path: repro/stats/streams_example_ok.py
"""Clean counterpart: sorted sources and order-insensitive consumers."""
import functools
import glob
import os
from pathlib import Path

import numpy as np


def calibrate_by_rate(sample_counts, calibrate):
    return {q: calibrate(q) for q in sorted(set(sample_counts))}


def _entries(cache_dir):
    return sorted(
        name
        for name in os.listdir(cache_dir)
        if name.startswith("accept-") and name.endswith(".json")
    )


def entry_count(cache_dir):
    return len([name for name in os.listdir(cache_dir) if name.endswith(".json")])


def clear(cache_dir):
    for name in sorted(os.listdir(cache_dir)):
        os.remove(os.path.join(cache_dir, name))


def sorted_total(samples):
    return sum(sorted(set(samples)))


def payload_total(received):
    return sum(received.values())


def sorted_digest(root):
    return "|".join(sorted(os.listdir(root)))


def stacked_rows(rows):
    return np.concatenate(sorted({tuple(row) for row in rows}))


def folded(values):
    return functools.reduce(lambda a, b: a * 0.5 + b, sorted(set(values)))


def order_free(values, root, pattern):
    largest = max(value for value in set(values))
    present = any(name.endswith(".json") for name in os.listdir(root))
    every = all(os.path.exists(path) for path in glob.glob(pattern))
    unique = frozenset(child.suffix for child in Path(root).iterdir())
    lowered = {name.lower() for name in os.listdir(root)}
    return largest, present, every, unique, lowered

