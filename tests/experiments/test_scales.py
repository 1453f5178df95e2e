"""Every experiment must declare a consistent smoke/small/paper spec."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro.experiments as experiments_package
from repro.experiments.harness import REQUIRED_SCALES, ExperimentSpec
from repro.experiments.registry import SPECS, experiment_ids, run_experiment

MODULES = {
    "e01": "repro.experiments.e01_any_rule",
    "e02": "repro.experiments.e02_and_rule",
    "e03": "repro.experiments.e03_threshold_T",
    "e04": "repro.experiments.e04_learning",
    "e05": "repro.experiments.e05_lemma42",
    "e06": "repro.experiments.e06_lemma43",
    "e07": "repro.experiments.e07_centralized",
    "e08": "repro.experiments.e08_single_sample",
    "e09": "repro.experiments.e09_asymmetric",
    "e10": "repro.experiments.e10_combinatorics",
    "e11": "repro.experiments.e11_kkl",
    "e12": "repro.experiments.e12_divergence",
    "e13": "repro.experiments.e13_identity",
    "e14": "repro.experiments.e14_statistics",
    "e15": "repro.experiments.e15_hard_family",
    "e16": "repro.experiments.e16_multibit",
    "e17": "repro.experiments.e17_network",
    "e18": "repro.experiments.e18_generalizations",
    "e19": "repro.experiments.e19_fault_tolerance",
    "e20": "repro.experiments.e20_comparison_graphs",
    "e21": "repro.experiments.e21_streaming_memory",
}


def test_module_map_matches_registry():
    assert sorted(MODULES) == experiment_ids()


def test_every_experiment_module_is_discovered():
    """No eNN_*.py file may exist without a registered SPEC (meta-test)."""
    on_disk = [
        info.name
        for info in pkgutil.iter_modules(experiments_package.__path__)
        if info.name[:1] == "e" and info.name[1:3].isdigit()
    ]
    assert len(on_disk) == len(SPECS)
    for name in on_disk:
        module = importlib.import_module(f"repro.experiments.{name}")
        spec = module.SPEC
        assert isinstance(spec, ExperimentSpec), name
        assert spec.experiment_id in SPECS, name
        assert SPECS[spec.experiment_id] is spec, name


@pytest.mark.parametrize("experiment_id", sorted(MODULES))
def test_module_exports_its_spec(experiment_id):
    module = importlib.import_module(MODULES[experiment_id])
    spec = module.SPEC
    assert isinstance(spec, ExperimentSpec)
    assert spec.experiment_id == experiment_id
    assert SPECS[experiment_id] is spec


@pytest.mark.parametrize("experiment_id", sorted(MODULES))
def test_scales_present_and_consistent(experiment_id):
    spec = SPECS[experiment_id]
    assert set(REQUIRED_SCALES) <= set(spec.scales)
    # Scale configs must share their parameter schema.
    for name in spec.scale_names():
        assert set(spec.scales[name]) == set(spec.scales["small"]), name


@pytest.mark.parametrize("experiment_id", sorted(MODULES))
def test_sweep_plans_are_nonempty_and_deterministic(experiment_id):
    spec = SPECS[experiment_id]
    for name in REQUIRED_SCALES:
        plan = spec.plan(name)
        assert plan, name
        assert plan == spec.plan(name), name


@pytest.mark.parametrize("experiment_id", sorted(MODULES))
def test_run_signature(experiment_id):
    """Every experiment runs as ``run_experiment(id, scale, seed)``."""
    import inspect

    assert SPECS[experiment_id].experiment_id == experiment_id
    signature = inspect.signature(run_experiment)
    assert list(signature.parameters)[:3] == ["experiment_id", "scale", "seed"]
