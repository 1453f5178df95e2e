# lint-path: repro/stats/rng_example.py
"""Golden fixture: every RL10x RNG-discipline rule fires."""
import random  # expect: RL103

import numpy as np

from repro.rng import ensure_rng


def fresh_generator():
    return np.random.default_rng()  # expect: RL101


def explicit_none_generators():
    coerced = ensure_rng(None)  # expect: RL101
    return coerced, np.random.default_rng(seed=None)  # expect: RL101


def pinned_generator():
    return np.random.default_rng(1234)  # expect: RL104


def legacy_draw():
    np.random.seed(0)  # expect: RL102
    return np.random.rand(3)  # expect: RL102


def sneaky_numpy():
    return __import__("numpy")  # expect: RL105


def shuffle_in_place(items):
    random.shuffle(items)
    return items
