#!/usr/bin/env python
# -*- coding: utf-8 -*-
# lint-path: repro/stats/streams_pragma_example.py
# repro-lint: disable-file=RL101, RL104 fixture exercises file-wide multi-code pragmas
"""RL603 line pragmas (with justification text) next to file pragmas."""
import os

import numpy as np


def justified_digest(root):
    return "|".join(os.listdir(root))  # repro-lint: disable=RL603 order is canonical here


def justified_loop(values):
    total = 0
    for value in set(values):  # repro-lint: disable=RL603 integer sum is order-free
        total += int(value)
    return total


def entropy_and_pinned():
    return np.random.default_rng(None), np.random.default_rng(7)
