"""The runtime kernel contract, checked for every kernel in the library.

Every Monte-Carlo estimate runs through ``accept_block(distribution,
trials, rng)``, and the engine relies on three things about it: it
returns a ``bool`` array of shape ``(trials,)``, it raises nothing on a
valid input, and it draws at most ``elements_per_trial × trials`` RNG
elements (``plan_tiles`` sizes trial blocks from that footprint).  The
table below runs each kernel at three sizes and two trial counts under a
:class:`CountingRng` that counts the elements it hands out.

:func:`test_contract_table_covers_every_kernel` keeps the table
complete: every ``src/repro`` class that defines ``accept_block`` and
every registered streaming plugin must have an entry.  The kernels of
the ``shapes_violations.py`` lint fixture each break the contract in one
way, and :func:`test_contract_checker_fails_broken_kernels` pins that
the checker catches all of them.
"""

from __future__ import annotations

import ast
import importlib.util
import os

import numpy as np
import pytest

import repro
from repro.core.closeness import UniformityViaCloseness
from repro.core.independence import IndependenceTester
from repro.core.learning import LearningSuccessKernel
from repro.core.plugins import get_plugin, registered_plugins
from repro.distributions.discrete import uniform
from repro.engine import BernoulliKernel, as_kernel
from repro.network.local_model import LocalUniformityTester
from repro.rng import ensure_rng

nx = pytest.importorskip("networkx")

EPS = 0.5

GOLDEN_VIOLATIONS = os.path.join(
    os.path.dirname(os.path.dirname(__file__)),
    "lint",
    "golden",
    "shapes_violations.py",
)


class CountingRng(np.random.Generator):
    """A ``Generator`` that counts the array elements it hands out.

    Subclasses :class:`numpy.random.Generator` so ``ensure_rng`` passes
    it through unchanged, and the counted stream is bit-identical to a
    plain ``default_rng(seed)`` stream.
    """

    def __init__(self, seed: int = 0):
        super().__init__(np.random.PCG64(seed))
        self.elements = 0

    def _count(self, value):
        self.elements += int(np.size(value))
        return value

    def random(self, *args, **kwargs):
        return self._count(super().random(*args, **kwargs))

    def integers(self, *args, **kwargs):
        return self._count(super().integers(*args, **kwargs))

    def uniform(self, *args, **kwargs):
        return self._count(super().uniform(*args, **kwargs))

    def normal(self, *args, **kwargs):
        return self._count(super().normal(*args, **kwargs))

    def standard_normal(self, *args, **kwargs):
        return self._count(super().standard_normal(*args, **kwargs))

    def poisson(self, *args, **kwargs):
        return self._count(super().poisson(*args, **kwargs))

    def permutation(self, *args, **kwargs):
        # numpy implements permutation via shuffle; snapshot so the
        # internal shuffle call is not double-counted.
        before = self.elements
        value = super().permutation(*args, **kwargs)
        self.elements = before + int(np.size(value))
        return value

    def choice(self, *args, **kwargs):
        return self._count(super().choice(*args, **kwargs))

    def shuffle(self, x, *args, **kwargs):
        self.elements += int(np.size(x))
        return super().shuffle(x, *args, **kwargs)


def _plugin(name):
    """A registered streaming plugin, run through ``StreamingKernel``."""
    return lambda n, k: get_plugin(name).factory(n, EPS)


#: Every kernel family, parameterized by the sweep sizes ``(n, k)``.
#: Entries run through :func:`as_kernel`, so testers reach the engine
#: the way estimates do (``TesterKernel``/``ProtocolKernel``/
#: ``StreamingKernel`` adapters included).
KERNEL_FACTORIES = {
    "bernoulli": lambda n, k: BernoulliKernel(0.625),
    "centralized": lambda n, k: repro.CentralizedCollisionTester(n, EPS),
    "amplified": lambda n, k: repro.AmplifiedTester(
        repro.CentralizedCollisionTester(n, EPS), repetitions=3
    ),
    "threshold-rule": lambda n, k: repro.ThresholdRuleTester(n, EPS, k=k),
    "and-rule": lambda n, k: repro.AndRuleTester(n, EPS, k=k),
    "pairwise-hash": lambda n, k: repro.PairwiseHashTester(n, EPS, k),
    "simulation": lambda n, k: repro.SimulationTester(n, EPS, k),
    "unique-elements": lambda n, k: repro.UniqueElementsTester(n, EPS),
    "empirical-distance": lambda n, k: repro.EmpiricalDistanceTester(n, EPS),
    "multibit": lambda n, k: repro.MultibitThresholdTester(n, EPS, k),
    "independence": lambda n, k: IndependenceTester(2, n // 2, EPS),
    "closeness-kernel": lambda n, k: repro.ClosenessTester(n, EPS).against(
        uniform(n)
    ),
    "closeness-reduction": lambda n, k: UniformityViaCloseness(
        repro.ClosenessTester(n, EPS)
    ),
    "network": lambda n, k: repro.NetworkUniformityTester(
        nx.path_graph(k), n, EPS
    ),
    "local-model": lambda n, k: LocalUniformityTester(
        nx.path_graph(k), n, EPS, rates=[1.0 + (i % 3) for i in range(k)]
    ),
    "learning-hits": lambda n, k: LearningSuccessKernel(
        repro.HitCountingLearner(n, k, 3), delta=2.0
    ),
    "learning-dither": lambda n, k: LearningSuccessKernel(
        repro.FrequencyDitheringLearner(n, k, 3), delta=2.0
    ),
    "graph-cycle": lambda n, k: repro.ComparisonGraphTester(
        n, EPS, repro.cycle_graph(3 * k)
    ),
    "graph-matching-distinct": lambda n, k: repro.ComparisonGraphTester(
        n, EPS, repro.matching_graph(2 * k), mode="distinct"
    ),
    "network-graph": lambda n, k: repro.NetworkUniformityTester(
        nx.path_graph(k), n, EPS, comparison_graph=repro.bipartite_graph(6)
    ),
    "plugin:collision-exact": _plugin("collision-exact"),
    "plugin:collision-sketch64": _plugin("collision-sketch64"),
    "plugin:distinct-exact": _plugin("distinct-exact"),
    "plugin:distinct-sketch64": _plugin("distinct-sketch64"),
    "plugin:graph-cycle": _plugin("graph-cycle"),
    "plugin:graph-matching": _plugin("graph-matching"),
    "plugin:graph-bipartite-distinct": _plugin("graph-bipartite-distinct"),
}

#: Classes that define ``accept_block`` but are not runnable kernels.
NOT_KERNELS = frozenset({"repro.engine.kernels.AcceptKernel"})

SIZES = ((8, 4), (32, 8), (64, 12))
TRIALS = (7, 16)


def contract_violations(kernel, distribution, trials, seed=2026):
    """Every way one ``accept_block`` call breaks the kernel contract.

    Returns a list of messages, each starting with the broken clause
    (``raised``, ``shape``, ``dtype`` or ``budget``); empty when the
    call honours the contract.
    """
    rng = CountingRng(seed=seed)
    try:
        accepts = np.asarray(kernel.accept_block(distribution, trials, rng))
    except Exception as error:  # any exception breaks the contract
        return [f"raised {type(error).__name__}: {error}"]
    problems = []
    if accepts.shape != (trials,):
        problems.append(f"shape {accepts.shape} is not ({trials},)")
    if accepts.dtype != np.bool_:
        problems.append(f"dtype {accepts.dtype} is not bool")
    declared = getattr(kernel, "elements_per_trial", None)
    if declared is None:
        problems.append("budget: no elements_per_trial declared")
    elif int(declared) * trials < rng.elements:
        problems.append(
            f"budget: declares {int(declared)}/trial but drew "
            f"{rng.elements} elements over {trials} trials"
        )
    return problems


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_elements_per_trial_covers_actual_draws(name):
    factory = KERNEL_FACTORIES[name]
    for n, k in SIZES:
        kernel = as_kernel(factory(n, k))
        assert int(kernel.elements_per_trial) >= 1
        distribution = uniform(n)
        for trials in TRIALS:
            problems = contract_violations(kernel, distribution, trials)
            assert problems == [], f"{name} at (n={n}, k={k}): {problems}"


def _accept_block_classes():
    """``module.Class`` for every ``src/repro`` class defining accept_block."""
    root = os.path.dirname(repro.__file__)
    found = set()
    for directory, _, files in os.walk(root):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            relative = os.path.relpath(path, os.path.dirname(root))
            module = relative[: -len(".py")].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and any(
                    isinstance(stmt, ast.FunctionDef) and stmt.name == "accept_block"
                    for stmt in node.body
                ):
                    found.add(f"{module}.{node.name}")
    return found


def _qualified(obj):
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


def test_contract_table_covers_every_kernel():
    covered = set()
    for factory in KERNEL_FACTORIES.values():
        built = factory(*SIZES[0])
        covered.update({_qualified(built), _qualified(as_kernel(built))})
    kernels = _accept_block_classes()
    assert NOT_KERNELS <= kernels
    assert kernels - NOT_KERNELS - covered == set()
    tabled = {
        name.split(":", 1)[1]
        for name in KERNEL_FACTORIES
        if name.startswith("plugin:")
    }
    assert set(registered_plugins()) - tabled == set()


def _golden_violation_kernels():
    spec = importlib.util.spec_from_file_location(
        "shapes_violations_fixture", GOLDEN_VIOLATIONS
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    dithered = module.DitheredGraphKernel(8)
    # The fixture leaves the graph wiring out; supply a matching graph.
    dithered.edge_u = np.arange(0, 8, 2)
    dithered.edge_v = np.arange(1, 8, 2)
    dithered.threshold = 1
    dithered.gamma = 0.25
    return {
        "ScalarCollapse": ("shape", module.ScalarCollapseKernel()),
        "MatrixReturn": ("shape", module.MatrixReturnKernel()),
        "CountReturn": ("dtype", module.CountReturnKernel()),
        "GraphCountReturn": ("dtype", module.GraphCountReturnKernel()),
        "UnderDeclared": ("budget", module.UnderDeclaredKernel(8)),
        "DitheredGraph": ("budget", dithered),
        "Misaligned": ("raised", module.MisalignedKernel()),
    }


@pytest.mark.parametrize("name", sorted(_golden_violation_kernels()))
def test_contract_checker_fails_broken_kernels(name):
    clause, kernel = _golden_violation_kernels()[name]
    problems = contract_violations(kernel, uniform(16), 9)
    assert any(problem.startswith(clause) for problem in problems), problems


def test_counting_rng_is_stream_transparent():
    counted = CountingRng(seed=7)
    plain = np.random.default_rng(7)
    np.testing.assert_array_equal(
        counted.random(5), plain.random(5)
    )
    np.testing.assert_array_equal(
        counted.integers(0, 9, size=(2, 3)), plain.integers(0, 9, size=(2, 3))
    )
    assert counted.elements == 5 + 6
    assert ensure_rng(counted) is counted


def test_counting_rng_counts_scalar_and_permutation_draws():
    rng = CountingRng(seed=1)
    rng.random()
    rng.permutation(4)
    rng.poisson(1.5, size=(3, 2))
    assert rng.elements == 1 + 4 + 6
