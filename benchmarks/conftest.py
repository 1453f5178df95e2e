"""Shared helpers for the benchmark suite.

Each benchmark file regenerates one experiment from DESIGN.md §3 (the
paper's theorem-level claims), asserts its shape criteria, and writes the
rendered table to ``benchmarks/results/<id>.txt`` so the regenerated
"tables" persist as artifacts.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_result(result) -> str:
    """Persist a rendered ExperimentResult; returns the path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{result.experiment_id}.txt")
    with open(path, "w") as handle:
        handle.write(result.render() + "\n")
    return path


@pytest.fixture
def persist():
    """Fixture exposing save_result to benchmarks."""
    return save_result


def engine_provenance(backend) -> dict:
    """Execution-environment record every benchmark payload embeds.

    Captures what actually ran — the backend family and its true worker
    width, the host's core count, and the backend's *measured* per-task
    dispatch overhead — so a recorded speedup (or lack of one) can be
    read against the hardware that produced it.
    """
    return {
        "backend": backend.name,
        "max_workers": int(getattr(backend, "max_workers", 1)),
        "cpu_count": os.cpu_count(),
        "dispatch_overhead_s": round(backend.dispatch_overhead_s(), 6),
    }


def host_provenance() -> dict:
    """What produced a recorded timing: the end-to-end benchmark's
    ``provenance()`` (git sha, core count, Python and NumPy versions,
    date), loaded from ``e2e/run.py`` so both benchmarks share one copy.
    Loading it puts ``e2e/`` on ``sys.path``, as running it does."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "e2e", "run.py")
    spec = importlib.util.spec_from_file_location("e2e_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.provenance()


@pytest.fixture
def provenance():
    """Fixture exposing engine_provenance to benchmarks."""
    return engine_provenance
