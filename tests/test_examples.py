"""Smoke tests for the example scripts.

Every example must at least compile; the fast ones also run end-to-end
(with their stdout captured) so a broken API surface is caught here.
"""

from __future__ import annotations

import importlib.util
import os
import py_compile

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
ALL_EXAMPLES = [
    "quickstart.py",
    "sensor_network.py",
    "locality_cost.py",
    "learn_distribution.py",
    "network_deployment.py",
    "identity_testing.py",
]


def load_example(filename: str):
    path = os.path.join(EXAMPLES_DIR, filename)
    spec = importlib.util.spec_from_file_location(filename[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("filename", ALL_EXAMPLES)
def test_example_compiles(filename):
    py_compile.compile(os.path.join(EXAMPLES_DIR, filename), doraise=True)


def test_quickstart_runs(capsys):
    module = load_example("quickstart.py")
    module.main()
    out = capsys.readouterr().out
    assert "Threshold tester" in out
    assert "lower bound" in out


def test_network_deployment_runs(capsys):
    module = load_example("network_deployment.py")
    module.main()
    out = capsys.readouterr().out
    assert "topology" in out
    assert "REJECT" in out


def test_sensor_network_helpers():
    module = load_example("sensor_network.py")
    alarms = [False, False, True, False, True]
    assert module.detection_latency(alarms, drift_hour=2) == 0
    assert module.detection_latency([False] * 5, drift_hour=2) is None
    assert module.false_alarms(alarms, drift_hour=2) == 0
    assert module.false_alarms([True, False], drift_hour=2) == 1
