"""Workloads of the end-to-end benchmark, and its declaration.

``BENCHMARK.json`` at the repository root declares the workload names and
every metric's name, unit, direction and bound; this module adds how each
workload runs.  ``test_e2e_bench.py`` checks that the workload names agree
and that a smoke run emits exactly the declared metrics.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

BENCHMARK_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)

#: Width of the shared-memory pool (the reference machine has ``nproc`` = 2).
SHM_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    #: ``"serial"`` or ``"shm"`` (pre-warmed pool of SHM_WORKERS).
    backend: str
    #: ``"per-pass"`` (fresh empty cache dir per pass), ``"shared"`` (the
    #: cache the warm-up pass filled) or ``None`` (no cache).
    cache: Optional[str]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("e01-cold", "e01", "serial", "per-pass"),
        Workload("e01-warm", "e01", "serial", "shared"),
        Workload("e01-shm2", "e01", "shm", None),
        Workload("e21-stream", "e21", "serial", None),
    )
}


def load_benchmark() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def units(benchmark: Dict[str, Any]) -> Dict[str, str]:
    """Unit of every declared metric, by name."""
    return {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
