"""The runtime kernel contract, checked for every kernel in the library.

Every Monte-Carlo estimate runs through ``accept_block(distribution,
trials, rng)``, and the engine relies on five things about it: it
returns a ``bool`` array of shape ``(trials,)``, it raises nothing on a
valid input, it draws at most ``elements_per_trial × trials`` RNG
elements (``plan_tiles`` sizes trial blocks from that footprint), it
draws from the generator it was handed (the per-block stream the
executor derives from the root seed), and the same seed gives the same
verdicts (the acceptance cache replays them as a function of the seed).
A kernel that declares ``relabel_invariant`` must also give the same
verdicts when every draw is relabelled by a fixed permutation of the
domain: the q* search then probes one alternative per sorted-pmf class.
The table below runs each kernel at three sizes and two trial counts
under a :class:`CountingRng` that counts the elements it hands out.
Every entry is a native kernel: the engine adapts nothing.

:func:`test_contract_table_covers_every_kernel` keeps the table
complete: every ``src/repro`` class that defines ``accept_block`` must
be the class (or a base class) of an entry, and every registered
streaming plugin must have one.  :func:`test_cache_tokens_are_pinned`
holds each entry's ``cache_token`` to ``kernel_tokens.json``, so a
change that moves a token (and orphans cached curves) must say so.  The kernels of
the ``shapes_violations.py`` lint fixture, plus :class:`EntropyKernel`,
:class:`ForkedLineageKernel` and :class:`FalselyInvariantKernel` below,
each break the contract in one way, and
:func:`test_contract_checker_fails_broken_kernels` pins that the checker
catches all of them.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os

import numpy as np
import pytest

import repro
from repro.core.closeness import UniformityViaCloseness
from repro.core.independence import IndependenceTester
from repro.core.learning import LearningSuccessKernel
from repro.core.plugins import registered_plugins
from repro.distributions.discrete import DiscreteDistribution, uniform
from repro.engine import KernelBase, estimate_acceptance, require_kernel
from repro.network.local_model import LocalUniformityTester
from repro.rng import ensure_rng
from repro.stats.complexity import default_far_distributions
from tests.oracles import BernoulliKernel

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


class RelabelledDistribution(DiscreteDistribution):
    """``base`` with every draw mapped through ``permutation``.

    Outcome ``i`` of ``base`` becomes ``permutation[i]``, so its pmf puts
    ``base.pmf[i]`` at ``permutation[i]``, and its draws are exactly
    ``permutation[base.sample(...)]``: the same uniforms, other labels.
    """

    __slots__ = ("_base", "_permutation")

    def __init__(self, base, permutation):
        permutation = np.asarray(permutation, dtype=np.int64)
        pmf = np.empty_like(base.pmf)
        pmf[permutation] = base.pmf
        super().__init__(pmf)
        self._base = base
        self._permutation = permutation

    def sample(self, size, rng=None):
        return self._permutation[self._base.sample(size, rng)]


def relabelled(distribution, seed=2027):
    """``distribution`` under a fixed random relabelling of its domain."""
    permutation = np.random.default_rng(seed).permutation(distribution.n)
    return RelabelledDistribution(distribution, permutation)


def _plugin(name):
    """A registered streaming plugin's tester."""
    return lambda n, k: registered_plugins()[name].factory(n, EPS)


def _protocol(n, k):
    """A raw homogeneous protocol: k collision-bit players, T = 2."""
    return repro.SimultaneousProtocol.homogeneous(
        repro.GraphStatisticPlayer(repro.complete_graph(4), 0),
        num_players=k,
        num_samples=4,
        referee=repro.ThresholdRule(2, num_players=k),
    )


#: Every kernel family, parameterized by the sweep sizes ``(n, k)``.
#: Entries are handed to the contract checker as built: every one is a
#: native kernel, exactly as the engine receives it.
KERNEL_FACTORIES = {
    "bernoulli": lambda n, k: BernoulliKernel(0.625),
    "centralized": lambda n, k: repro.CentralizedCollisionTester(n, EPS),
    "amplified": lambda n, k: repro.AmplifiedTester(
        repro.CentralizedCollisionTester(n, EPS), repetitions=3
    ),
    "threshold-rule": lambda n, k: repro.ThresholdRuleTester(n, EPS, k=k),
    "and-rule": lambda n, k: repro.AndRuleTester(n, EPS, k=k),
    "asymmetric-rate": lambda n, k: repro.AsymmetricRateTester(
        n, EPS, rates=[1.0 + (i % 3) for i in range(k)], tau=4.0,
        calibration_trials=400,
    ),
    "protocol": _protocol,
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
    """Every way ``accept_block`` breaks the kernel contract at one seed.

    Returns a list of messages, each starting with the broken clause
    (``raised``, ``shape``, ``dtype``, ``budget``, ``lineage``,
    ``determinism`` or ``relabel``); empty when the kernel honours the
    contract.
    """
    rng = CountingRng(seed=seed)
    untouched = rng.bit_generator.state
    invariant = getattr(kernel, "relabel_invariant", False)
    try:
        accepts = np.asarray(kernel.accept_block(distribution, trials, rng))
        again = np.asarray(
            kernel.accept_block(distribution, trials, CountingRng(seed=seed))
        )
        if invariant:
            moved = np.asarray(
                kernel.accept_block(
                    relabelled(distribution), trials, CountingRng(seed=seed)
                )
            )
    except Exception as error:  # any exception breaks the contract
        return [f"raised {type(error).__name__}: {error}"]
    problems = []
    if invariant and not np.array_equal(accepts, moved):
        problems.append(
            "relabel: declares relabel_invariant but relabelled draws "
            "changed the accept vector"
        )
    if rng.bit_generator.state == untouched:
        problems.append("lineage: drew nothing from the generator it was handed")
    if not np.array_equal(accepts, again):
        problems.append("determinism: the same seed gave different accept vectors")
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
        kernel = factory(n, k)
        require_kernel(kernel)
        assert int(kernel.elements_per_trial) >= 1
        # A far input too, where draws collide often (the relabel clause).
        far = default_far_distributions(n, EPS, rng=n)[0]
        for distribution in (uniform(n), far):
            for trials in TRIALS:
                problems = contract_violations(kernel, distribution, trials)
                assert problems == [], f"{name} at (n={n}, k={k}): {problems}"


#: The table entries whose verdicts ignore the labels of the domain.
#: Sketched streaming testers hash values with a fixed mixer and the
#: pairwise-hash tester indexes its public hashes by value, so neither is
#: invariant, though each accepts equally often on relabelled inputs.
RELABEL_INVARIANT = frozenset(
    {
        "amplified",
        "and-rule",
        "asymmetric-rate",
        "centralized",
        "graph-cycle",
        "graph-matching-distinct",
        "multibit",
        "plugin:collision-exact",
        "plugin:distinct-exact",
        "plugin:graph-bipartite-distinct",
        "plugin:graph-cycle",
        "plugin:graph-matching",
        "protocol",
        "threshold-rule",
        "unique-elements",
    }
)


def test_relabel_invariant_flags_are_pinned():
    flagged = {
        name
        for name, factory in KERNEL_FACTORIES.items()
        if getattr(factory(*SIZES[0]), "relabel_invariant", False)
    }
    assert flagged == RELABEL_INVARIANT


def test_players_that_draw_coins_honour_the_contract():
    """Forced-T threshold testers send the dithered collision bit, which
    draws one coin per response (``draws_per_response``)."""
    for n, k in SIZES:
        dithered = repro.ThresholdRuleTester(n, EPS, k=k, forced_T=2)
        assert dithered.relabel_invariant
        far = default_far_distributions(n, EPS, rng=n)[0]
        for distribution in (uniform(n), far):
            assert contract_violations(dithered, distribution, 16) == []


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


def _qualified(cls):
    return f"{cls.__module__}.{cls.__qualname__}"


def test_contract_table_covers_every_kernel():
    covered = set()
    for factory in KERNEL_FACTORIES.values():
        built = factory(*SIZES[0])
        require_kernel(built)
        covered.update(_qualified(cls) for cls in type(built).__mro__)
    kernels = _accept_block_classes()
    assert NOT_KERNELS <= kernels
    assert kernels - NOT_KERNELS - covered == set()
    tabled = {
        name.split(":", 1)[1]
        for name in KERNEL_FACTORIES
        if name.startswith("plugin:")
    }
    assert set(registered_plugins()) - tabled == set()


@pytest.mark.parametrize("name", sorted(set(KERNEL_FACTORIES) - {"bernoulli"}))
def test_front_end_is_the_engine_on_every_kernel(name):
    """Every library kernel (the test-only Bernoulli fixture aside)
    inherits one front-end: ``test`` and ``acceptance_probability`` are
    exactly the engine's answers."""
    n, k = SIZES[0]
    kernel = KERNEL_FACTORIES[name](n, k)
    assert isinstance(kernel, KernelBase)
    distribution = uniform(n)
    assert kernel.test(distribution, 7) == kernel.accept_batch(distribution, 1, 7)[0]
    expected = estimate_acceptance(kernel, distribution, trials=64, rng=7).rate
    assert kernel.acceptance_probability(distribution, 64, 7) == expected


TOKEN_FIXTURE = os.path.join(os.path.dirname(__file__), "kernel_tokens.json")

#: Entries whose token deliberately moved since the fixture was captured,
#: each mapped to the expected token given the captured one.
TOKEN_CHANGES = {
    # kernel_version 2: the base enters by its own cache_token (the
    # fingerprint dropped a comparison graph's edges).
    "amplified": lambda captured, kernel: {
        **captured,
        "kernel_version": 2,
        "base": kernel.base.cache_token,
    },
}


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_cache_tokens_are_pinned(name):
    """Tokens key every cached curve: an unannounced move orphans them."""
    with open(TOKEN_FIXTURE, encoding="utf-8") as handle:
        captured = json.load(handle)[name]
    for (n, k), expected in zip(SIZES, captured):
        kernel = KERNEL_FACTORIES[name](n, k)
        if name in TOKEN_CHANGES:
            expected = TOKEN_CHANGES[name](expected, kernel)
        token = json.loads(json.dumps(kernel.cache_token))
        assert token == json.loads(json.dumps(expected)), f"{name} at (n={n}, k={k})"


class EntropyKernel:
    """Draws OS entropy: its verdicts are not a function of the seed."""

    elements_per_trial = 1

    def accept_block(self, distribution, trials, rng):
        return ensure_rng(None).random(trials) < 0.5


class ForkedLineageKernel:
    """Builds its own stream from a salt and ignores the one handed in."""

    elements_per_trial = 1

    def __init__(self, salt):
        self.salt = salt

    def accept_block(self, distribution, trials, rng):
        return np.random.default_rng(self.salt).random(trials) < 0.5


class FalselyInvariantKernel:
    """Claims relabel invariance but accepts iff its draw is a low label."""

    elements_per_trial = 1
    relabel_invariant = True

    def accept_block(self, distribution, trials, rng):
        return distribution.sample(trials, rng) < distribution.n // 2


def _broken_kernels():
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
        "Entropy": ("determinism", EntropyKernel()),
        "ForkedLineage": ("lineage", ForkedLineageKernel(salt=5)),
        "FalselyInvariant": ("relabel", FalselyInvariantKernel()),
    }


@pytest.mark.parametrize("name", sorted(_broken_kernels()))
def test_contract_checker_fails_broken_kernels(name):
    clause, kernel = _broken_kernels()[name]
    # 64 trials: two entropy runs agree on every verdict with odds 2**-64.
    problems = contract_violations(kernel, uniform(16), 64)
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
