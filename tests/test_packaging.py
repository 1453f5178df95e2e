"""Packaging and metadata consistency checks."""

from __future__ import annotations

import os

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


class TestImportCost:
    def test_experiments_and_cli_do_not_import_the_linter(self):
        """The experiment layer and ``python -m repro`` never load
        ``repro.lint``; the linter has its own entry point."""
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        script = (
            "import sys\n"
            "import repro, repro.experiments, repro.cli\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.lint'))\n"
            "assert not loaded, loaded\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_networkx_is_imported_only_when_a_topology_is_built(self):
        """``import repro`` and the experiment registry leave networkx
        unloaded; the network substrate imports it where it is used."""
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        script = (
            "import sys\n"
            "import repro, repro.experiments\n"
            "assert 'networkx' not in sys.modules, 'networkx imported eagerly'\n"
            "repro.network.line_topology(3)\n"
            "assert 'networkx' in sys.modules\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
