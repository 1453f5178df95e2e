"""Registry dispatch tests plus fast smoke/correctness runs of the cheap
exact-verification experiments (the Monte Carlo sweeps are exercised by the
benchmark suite)."""

from __future__ import annotations

import importlib
import sys
import textwrap
import uuid

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments import experiment_ids, get_spec, registry, run_experiment

#: A well-formed experiment module body; ``{eid}`` is the id its SPEC declares.
SPEC_MODULE = textwrap.dedent(
    """
    from repro.experiments.harness import ExperimentSpec

    def sweep(params):
        return [{{}}]

    def point(pt, params, rng):
        return {{}}

    def fold(result, params, points, payloads):
        pass

    SCALES = {{"smoke": {{}}, "small": {{}}, "paper": {{}}}}
    SPEC = ExperimentSpec("{eid}", "fake", SCALES, sweep, point, fold)
    """
)


class TestRegistry:
    def test_all_twelve_registered(self):
        assert experiment_ids() == [f"e{i:02d}" for i in range(1, 22)]

    def test_unknown_experiment(self):
        with pytest.raises(InvalidParameterError):
            run_experiment("e99")

    def test_unknown_experiment_lists_every_known_id(self):
        with pytest.raises(InvalidParameterError, match="unknown experiment 'e99'") as info:
            get_spec("e99")
        for experiment_id in experiment_ids():
            assert repr(experiment_id) in str(info.value)

    def test_case_insensitive(self):
        result = run_experiment("E10", scale="small")
        assert result.experiment_id == "e10"

    def test_unknown_scale_rejected(self):
        for eid in experiment_ids():
            with pytest.raises(InvalidParameterError):
                run_experiment(eid, scale="galactic")


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    """Point the registry at an empty, uniquely named package; returns a
    ``write(module_name, source)`` helper that adds a module to it."""
    package = f"fake_experiments_{uuid.uuid4().hex}"
    root = tmp_path / package
    root.mkdir()
    (root / "__init__.py").write_text("")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(registry, "_PACKAGE", package)

    def write(name, source):
        (root / f"{name}.py").write_text(source)
        importlib.invalidate_caches()

    yield write
    for name in [m for m in sys.modules if m.split(".")[0] == package]:
        del sys.modules[name]


class TestDiscoveryFailures:
    """Each broken experiment package fails loudly at lookup, never by
    dropping the experiment."""

    def test_module_without_spec(self, fake_package):
        fake_package("e01_empty", "VALUE = 1\n")
        with pytest.raises(InvalidParameterError, match="defines no SPEC"):
            get_spec("e01")

    def test_spec_of_the_wrong_type(self, fake_package):
        fake_package("e01_wrong", "SPEC = {'experiment_id': 'e01'}\n")
        with pytest.raises(InvalidParameterError, match="not an ExperimentSpec"):
            get_spec("e01")

    def test_spec_id_differs_from_the_file_name(self, fake_package):
        fake_package("e01_mislabelled", SPEC_MODULE.format(eid="e02"))
        with pytest.raises(InvalidParameterError, match="declares id 'e02'"):
            get_spec("e01")

    def test_two_modules_share_a_prefix(self, fake_package):
        fake_package("e01_first", SPEC_MODULE.format(eid="e01"))
        fake_package("e01_second", SPEC_MODULE.format(eid="e01"))
        with pytest.raises(InvalidParameterError, match="share the id 'e01'"):
            get_spec("e01")

    def test_lookup_imports_only_its_module_and_discovery_imports_all(self, fake_package):
        fake_package("e01_good", SPEC_MODULE.format(eid="e01"))
        fake_package("e02_broken", "VALUE = 1\n")
        assert get_spec("E01").experiment_id == "e01"
        assert get_spec("e01") is get_spec("e01")
        package = registry._PACKAGE
        assert f"{package}.e01_good" in sys.modules
        assert f"{package}.e02_broken" not in sys.modules
        with pytest.raises(InvalidParameterError, match="'e02_broken' defines no SPEC"):
            experiment_ids()


class TestExactExperiments:
    """The enumeration-based experiments are fast enough to run in tests
    and their pass criteria are exact (zero violations)."""

    def test_e05_no_violations(self):
        result = run_experiment("e05", scale="small")
        assert result.summary["lemma_4_2_violations (corrected constant; expect 0)"] == 0
        assert result.summary["lemma_5_1_violations (paper: 0)"] == 0
        assert result.summary["max_lemma_4_1_identity_gap (≈0)"] < 1e-10

    def test_e06_no_violations(self):
        result = run_experiment("e06", scale="small")
        assert result.summary["violations (paper: 0)"] == 0
        assert result.summary["instances_checked"] > 0

    def test_e10_no_violations(self):
        result = run_experiment("e10", scale="small")
        assert result.summary["claim_3_1_violations (paper: 0)"] == 0
        assert result.summary["prop_5_2_violations (paper: 0)"] == 0
        assert result.summary["lemma_5_5_violations (paper: 0)"] == 0

    def test_e11_no_violations(self):
        result = run_experiment("e11", scale="small")
        assert result.summary["violations (paper: 0)"] == 0
        assert 0.0 < result.summary["tightest_ratio"] <= 1.0

    def test_results_render(self):
        result = run_experiment("e10", scale="small")
        assert "E10" in result.render()
