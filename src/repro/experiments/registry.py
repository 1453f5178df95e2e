"""Experiment registry: spec discovery and dispatch.

Experiment modules are *discovered*, not hand-listed: every
``eNN_*.py`` module in this package must export a module-level
:data:`SPEC` (:class:`~repro.experiments.harness.ExperimentSpec`) whose
id is the module's ``eNN`` prefix.  The registry maps ids to modules by
file name alone, so :func:`get_spec` and :func:`run_experiment` import
only the one module they need (once; the spec is memoised).
:func:`experiment_ids`, :data:`SPECS` and ``run-all`` import them all.
A module that forgets its ``SPEC``, exports something else, declares
another id or shares its prefix with another module fails loudly here
rather than silently dropping out of ``run-all``.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import re
from typing import Any, Dict, List, Optional

from ..exceptions import InvalidParameterError
from .harness import ExperimentSpec, run_spec
from .records import ExperimentResult

#: Experiment modules look like ``e01_any_rule`` — discovery is by name,
#: and the ``eNN`` prefix is the experiment id.
_MODULE_PATTERN = re.compile(r"^(e\d{2})_\w+$")

#: The package whose ``eNN_*`` modules are the experiments.
_PACKAGE = __package__ or "repro.experiments"

#: Experiment id → spec, discovered on first access (module ``__getattr__``).
SPECS: Dict[str, ExperimentSpec]


@functools.lru_cache(maxsize=None)
def _module_index(package: str) -> Dict[str, str]:
    """Experiment id → module name, read from the file names (no imports)."""
    index: Dict[str, str] = {}
    path = importlib.import_module(package).__path__
    for name in sorted(info.name for info in pkgutil.iter_modules(path)):
        match = _MODULE_PATTERN.match(name)
        if match is None:
            continue
        experiment_id = match.group(1)
        if experiment_id in index:
            raise InvalidParameterError(
                f"experiment modules {index[experiment_id]!r} and {name!r} "
                f"share the id {experiment_id!r}"
            )
        index[experiment_id] = name
    return index


@functools.lru_cache(maxsize=None)
def _load_spec(package: str, experiment_id: str) -> ExperimentSpec:
    """Import one experiment's module and check the SPEC it exports."""
    name = _module_index(package)[experiment_id]
    spec = getattr(importlib.import_module(f"{package}.{name}"), "SPEC", None)
    if spec is None:
        raise InvalidParameterError(f"experiment module {name!r} defines no SPEC")
    if not isinstance(spec, ExperimentSpec):
        raise InvalidParameterError(
            f"experiment module {name!r}: SPEC is not an ExperimentSpec"
        )
    if spec.experiment_id != experiment_id:
        raise InvalidParameterError(
            f"experiment module {name!r} declares id {spec.experiment_id!r}; "
            f"its file name gives {experiment_id!r}"
        )
    return spec


def discover_specs() -> Dict[str, ExperimentSpec]:
    """Import every ``eNN_*`` module in this package and collect its SPEC."""
    return {
        experiment_id: _load_spec(_PACKAGE, experiment_id)
        for experiment_id in _module_index(_PACKAGE)
    }


def __getattr__(name: str) -> Any:
    if name == "SPECS":
        specs = globals()["SPECS"] = discover_specs()
        return specs
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def experiment_ids() -> List[str]:
    """All registered experiment ids, sorted (imports every module)."""
    return sorted(discover_specs())


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up one experiment's spec by id (e.g. ``"e01"``), importing
    only its module; an unknown id raises, listing every known one."""
    key = experiment_id.lower()
    if key not in _module_index(_PACKAGE):
        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; known: {experiment_ids()}"
        )
    return _load_spec(_PACKAGE, key)


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
