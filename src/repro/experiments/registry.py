"""Experiment registry: spec discovery and dispatch.

Experiment modules are *discovered*, not hand-listed: every
``eNN_*.py`` module in this package must export a module-level
:data:`SPEC` (:class:`~repro.experiments.harness.ExperimentSpec`), and
the registry imports them all at first use.  A module that forgets its
``SPEC`` — or registers a duplicate id — fails loudly here rather than
silently dropping out of ``run-all``.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from typing import Dict, List, Optional

from ..exceptions import InvalidParameterError
from .harness import ExperimentSpec, run_spec
from .records import ExperimentResult

#: Experiment modules look like ``e01_any_rule`` — discovery is by name.
_MODULE_PATTERN = re.compile(r"^e\d{2}_\w+$")


def discover_specs() -> Dict[str, ExperimentSpec]:
    """Import every ``eNN_*`` module in this package and collect its SPEC."""
    package = importlib.import_module(__package__ or "repro.experiments")
    specs: Dict[str, ExperimentSpec] = {}
    names = sorted(
        info.name
        for info in pkgutil.iter_modules(package.__path__)
        if _MODULE_PATTERN.match(info.name)
    )
    for name in names:
        module = importlib.import_module(f"{package.__name__}.{name}")
        spec = getattr(module, "SPEC", None)
        if spec is None:
            raise InvalidParameterError(
                f"experiment module {name!r} defines no SPEC"
            )
        if not isinstance(spec, ExperimentSpec):
            raise InvalidParameterError(
                f"experiment module {name!r}: SPEC is not an ExperimentSpec"
            )
        if spec.experiment_id in specs:
            raise InvalidParameterError(
                f"duplicate experiment id {spec.experiment_id!r} (module {name!r})"
            )
        specs[spec.experiment_id] = spec
    return specs


#: Experiment id → declarative spec (discovered once at import).
SPECS: Dict[str, ExperimentSpec] = discover_specs()


def experiment_ids() -> List[str]:
    """All registered experiment ids, sorted."""
    return sorted(SPECS)


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up one experiment's spec by id (e.g. ``"e01"``); an unknown
    id raises, listing every known one."""
    key = experiment_id.lower()
    if key not in SPECS:
        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; known: {experiment_ids()}"
        )
    return SPECS[key]


def run_experiment(
    experiment_id: str,
    scale: str = "small",
    seed: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"e01"``; see :func:`get_spec`).

    The run executes inside a fresh engine-metrics scope; the collected
    counters (samples drawn, tiles executed, cache hits, wall time) are
    attached to the returned result's ``metrics`` field.  With a
    ``checkpoint_dir``, completed sweep points are persisted and
    ``resume=True`` picks up an interrupted run where it stopped.
    """
    from ..engine import collect_metrics

    spec = get_spec(experiment_id)
    with collect_metrics() as metrics:
        result = run_spec(
            spec,
            scale=scale,
            seed=seed,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
    result.metrics = metrics.snapshot()
    return result
