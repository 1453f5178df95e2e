"""Packaging and metadata consistency checks."""

from __future__ import annotations

import json
import os
import re

import pytest

import repro

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


class TestVersion:
    def test_version_matches_pyproject(self):
        with open(os.path.join(REPO_ROOT, "pyproject.toml")) as handle:
            pyproject = handle.read()
        assert f'version = "{repro.__version__}"' in pyproject

    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.distributions",
            "repro.fourier",
            "repro.core",
            "repro.lowerbounds",
            "repro.stats",
            "repro.experiments",
            "repro.reductions",
            "repro.network",
            "repro.cli",
        ],
    )
    def test_importable(self, module):
        import importlib

        importlib.import_module(module)

    def test_subpackage_alls_resolve(self):
        """Every name in a subpackage __all__ must exist."""
        import importlib

        for name in (
            "repro.distributions",
            "repro.fourier",
            "repro.core",
            "repro.lowerbounds",
            "repro.stats",
            "repro.network",
            "repro.reductions",
        ):
            module = importlib.import_module(name)
            for exported in module.__all__:
                assert hasattr(module, exported), (name, exported)


class TestDependencies:
    def test_only_declared_runtime_dependencies(self):
        """Source modules must import only numpy/scipy/networkx + stdlib.

        networkx is used by the network substrate and ships in the offline
        environment; anything else would break a clean install.
        """
        import ast

        allowed_third_party = {"numpy", "scipy", "networkx"}
        src_root = os.path.join(REPO_ROOT, "src", "repro")
        offenders = []
        for dirpath, _, filenames in os.walk(src_root):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path) as handle:
                    tree = ast.parse(handle.read())
                for node in ast.walk(tree):
                    roots = []
                    if isinstance(node, ast.Import):
                        roots = [alias.name.split(".")[0] for alias in node.names]
                    elif isinstance(node, ast.ImportFrom) and node.level == 0:
                        if node.module:
                            roots = [node.module.split(".")[0]]
                    for root in roots:
                        if root in {"repro", "__future__"}:
                            continue
                        if root in allowed_third_party:
                            continue
                        import sys

                        if root in sys.stdlib_module_names:
                            continue
                        offenders.append((path, root))
        assert not offenders, offenders


def run_python(script):
    """Run ``script`` in a fresh interpreter on ``src``; return its stdout."""
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def modules_loaded_by(script):
    """The ``sys.modules`` keys after ``script`` runs in a fresh interpreter."""
    output = run_python(
        script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    )
    return set(json.loads(output.splitlines()[-1]))


def experiment_modules(loaded):
    return sorted(
        name
        for name in loaded
        if re.fullmatch(r"repro\.experiments\.e\d{2}_\w+", name)
    )


#: The set-up imports of ``benchmarks/e2e/workload.py``.
WORKLOAD_SETUP = (
    "from repro.engine import AcceptanceCache, SerialBackend, make_backend\n"
    "from repro.experiments import get_spec\n"
)


class TestImportCost:
    """Which modules a fresh interpreter loads; no timing."""

    def test_experiments_and_cli_do_not_import_the_linter(self):
        """The experiment layer and ``python -m repro`` never load
        ``repro.lint``; the linter has its own entry point."""
        loaded = modules_loaded_by("import repro, repro.experiments, repro.cli")
        assert not [m for m in loaded if m.startswith("repro.lint")]

    def test_networkx_is_imported_only_when_a_topology_is_built(self):
        """``import repro`` and the experiment registry leave networkx
        unloaded; the network substrate imports it where it is used."""
        run_python(
            "import sys\n"
            "import repro, repro.experiments\n"
            "assert 'networkx' not in sys.modules, 'networkx imported eagerly'\n"
            "repro.network.line_topology(3)\n"
            "assert 'networkx' in sys.modules\n"
        )

    def test_import_repro_loads_no_numpy_and_no_subpackage(self):
        loaded = modules_loaded_by("import repro")
        assert "numpy" not in loaded
        assert sorted(m for m in loaded if m.startswith("repro.")) == ["repro._lazy"]

    def test_workload_setup_loads_no_tester_layer_and_no_experiment(self):
        loaded = modules_loaded_by(WORKLOAD_SETUP)
        for package in ("core", "network", "lowerbounds", "fourier", "reductions"):
            assert not [m for m in loaded if m.split(".")[:2] == ["repro", package]]
        assert experiment_modules(loaded) == []

    def test_get_spec_imports_exactly_one_experiment_module(self):
        loaded = modules_loaded_by(WORKLOAD_SETUP + "get_spec('e01')")
        assert experiment_modules(loaded) == ["repro.experiments.e01_any_rule"]

    def test_lint_list_rules_loads_neither_numpy_nor_the_engine(self):
        loaded = modules_loaded_by(
            "import contextlib, io, runpy, sys\n"
            "sys.argv = ['repro.lint', '--list-rules']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        runpy.run_module('repro.lint', run_name='__main__')\n"
            "    except SystemExit as stop:\n"
            "        assert stop.code == 0, stop.code\n"
        )
        assert "repro.lint.cli" in loaded
        assert "numpy" not in loaded
        assert not [m for m in loaded if m.startswith("repro.engine")]

    def test_import_cli_loads_no_core(self):
        loaded = modules_loaded_by("import repro.cli")
        assert not [m for m in loaded if m.startswith("repro.core")]

    def test_every_lazy_name_is_its_defining_object(self):
        import importlib

        namespace = {}
        exec("from repro import *", namespace)
        listed = dir(repro)
        for module, names in repro._EXPORTS.items():
            defining = importlib.import_module(f"repro.{module}")
            for name in names:
                assert getattr(repro, name) is getattr(defining, name), name
                assert name in listed, name
                assert namespace[name] is getattr(defining, name), name
        assert sorted(repro.__all__) == sorted(
            name for names in repro._EXPORTS.values() for name in names
        )

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
