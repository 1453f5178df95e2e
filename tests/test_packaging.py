"""Packaging and metadata consistency checks."""

from __future__ import annotations

import ast
import json
import os
import re
from collections import Counter
from pathlib import Path

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


_FOURIER = "Fourier toolkit of Sections 2-5 (DESIGN.md §1)"
_SECTION_6 = "Section 6 formula (lowerbounds/divergence.py)"

#: Public ``src`` names that nothing below reaches, and why each stays.
KEPT = {
    "lazy_exports": "builds the lazy namespaces; only package __init__ modules call it",
    "ComparisonGraph.num_cherries": "the adjacent-edge count behind a graph statistic's variance (docs/architecture.md)",
    "HitCountingLearner.expected_error_scale": "examples/learn_distribution.py prints it",
    "FrequencyDitheringLearner.expected_error_scale": "examples/learn_distribution.py prints it",
    "LearningSuccessKernel": "the learners' accept kernel (docs/architecture.md)",
    "UniqueElementsPlayer": "a player strategy of the model (docs/model.md)",
    "SubsetMembershipPlayer": "a player strategy of the model (docs/model.md)",
    "TruthTableRule.from_callable": "builds the arbitrary-f referee docs/api.md lists",
    "calibrate_sketch_threshold": "Monte-Carlo cross-check of the closed-form sketch cut; benchmarks/e2e traces it",
    "encode_pair": "Section 3's paired-domain labels (repro.distributions.families)",
    "decode_pair": "Section 3's paired-domain labels (repro.distributions.families)",
    "PaninskiFamily.single_sample_mixture": "E_z[ν_z] = U_n (docs/glossary.md)",
    "ExperimentResult.from_json": "reads back the schema-v2 documents to_json writes",
    "LocalUniformityTester": "the network form of §6.2 (docs/glossary.md)",
    "IdentityTester.samples_needed": "examples/identity_testing.py prints it",
    "SampleOracle.samples_drawn": "the meter reading of SampleOracle's sample metering (docs/model.md)",
    "PowerLawFit.predict": "evaluates the law fit_power_law returns (docs/api.md)",
    "PowerCurve.crossing": "reads the crossover off the curve power_curve returns (docs/api.md)",
    "spectral_variance": _FOURIER,
    "level_weight": _FOURIER,
    "influences": _FOURIER,
    "total_influence": _FOURIER,
    "noise_stability": _FOURIER,
    "plancherel_inner_product": _FOURIER,
    "direct_inner_product": _FOURIER,
    "all_subsets": _FOURIER,
    "character_value": _FOURIER,
    "character_vector": _FOURIER,
    "masks_by_level": _FOURIER,
    "inverse_walsh_hadamard_transform": _FOURIER,
    "BooleanFunction.from_callable": _FOURIER,
    "BooleanFunction.dictator": _FOURIER,
    "BooleanFunction.parity": _FOURIER,
    "BooleanFunction.coefficient": _FOURIER,
    "BooleanFunction.evaluate_vector": _FOURIER,
    "BooleanFunction.restrict_prefix": _FOURIER,
    "required_divergence": _SECTION_6,
    "asymmetric_required_divergence": _SECTION_6,
    "asymmetric_q_lower_bound": _SECTION_6,
}


#: Builtins whose second argument names an attribute.
_ATTRIBUTE_BY_NAME = {"getattr", "hasattr", "setattr"}


def _identifiers(node):
    """Every name ``node`` mentions: names, attributes, imports and the
    string name argument of ``getattr``/``hasattr``/``setattr``."""
    counts = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
        elif isinstance(child, ast.alias):
            counts[child.name.split(".")[-1]] += 1
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id in _ATTRIBUTE_BY_NAME
            and len(child.args) >= 2
            and isinstance(child.args[1], ast.Constant)
            and isinstance(child.args[1].value, str)
        ):
            counts[child.args[1].value] += 1
    return counts


def _public_definitions(tree):
    """``(qualified name, name, node)`` of each public top-level function
    or class and each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name, member


def unreached_public_names():
    """Public names outside ``repro.lint`` that only tests can reach.

    A name is reached when a non-``__init__`` module under ``src/repro``
    names it anywhere but inside its own definition, when ``docs/api.md``
    mentions it, or when ``repro.__all__`` exports it.
    """
    package = Path(REPO_ROOT, "src", "repro")
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.rglob("*.py"))}
    mentions = Counter()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            mentions.update(_identifiers(tree))
    documented = set(re.findall(r"\w+", Path(REPO_ROOT, "docs", "api.md").read_text()))
    exported = set(repro.__all__)
    unreached = []
    for path, tree in trees.items():
        if path.relative_to(package).parts[0] == "lint":
            continue
        for qualified, name, node in _public_definitions(tree):
            own = _identifiers(node)[name] if path.name != "__init__.py" else 0
            if mentions[name] > own or name in documented or name in exported:
                continue
            unreached.append(qualified)
    return unreached


class TestPublicSurface:
    """No public ``src`` name exists only for the tests."""

    def test_every_public_name_is_reached_or_kept(self):
        unreached = [name for name in unreached_public_names() if name not in KEPT]
        assert unreached == [], (
            "public names nothing in src, docs/api.md or repro.__all__ reaches "
            f"(delete them, move test oracles to tests/oracles.py, or list them in KEPT): {unreached}"
        )

    def test_kept_names_are_still_unreached(self):
        """A KEPT entry whose name is gone or now reached is stale."""
        assert sorted(set(KEPT) - set(unreached_public_names())) == []

    def test_only_attribute_lookup_strings_count_as_reaches(self):
        """A name spelled only in a plain string (a label, a registry
        key) is not reached; the name argument of getattr is."""
        tree = ast.parse(
            'LABELS = {"dictator": 1}\n'
            'print("samples_drawn")\n'
            'value = getattr(oracle, "budget")\n'
            'hasattr(oracle, "domain_size")\n'
        )
        counts = _identifiers(tree)
        assert counts["dictator"] == 0
        assert counts["samples_drawn"] == 0
        assert counts["budget"] == 1
        assert counts["domain_size"] == 1
