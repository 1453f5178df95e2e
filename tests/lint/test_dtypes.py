"""Unit tests for the syntactic RL802 platform-dependent-dtype rule.

Each case lints a small in-memory kernel with RL802 alone and checks
which lines fire.  Scope follows the kernel hot path: ``*_block``
methods of AcceptKernel-shaped classes, streaming ``update``/``finalize``
and ``cache_token``; the same code in a plain helper stays clean.
"""

import textwrap

from repro.lint import active_rules, lint_source

PATH = "repro/core/example.py"

PREAMBLE = "import numpy as np\n"

RL802 = active_rules(select=["RL802"])


def _codes(source):
    diagnostics = lint_source(
        PREAMBLE + textwrap.dedent(source), path=PATH, rules=RL802
    )
    return [(d.line, d.code) for d in diagnostics]


def _kernel(body):
    """A minimal AcceptKernel-shaped class around one accept_block body."""
    return (
        "class Kernel:\n"
        "    @property\n"
        "    def cache_token(self):\n"
        "        return {'kind': 'example'}\n"
        "    def accept_block(self, distribution, trials, rng):\n"
        + textwrap.indent(textwrap.dedent(body), "        ")
    )


def test_rl802_platform_int_attribute_fires_once():
    codes = _codes(
        _kernel(
            """
            samples = distribution.sample_matrix(trials, 8, rng)
            counts = samples.astype(np.int_)
            return (counts == 0).any(axis=1)
            """
        )
    )
    assert [code for _, code in codes] == ["RL802"]


def test_rl802_bare_int_astype_fires():
    codes = _codes(
        _kernel(
            """
            samples = distribution.sample_matrix(trials, 8, rng)
            counts = samples.astype(int)
            return (counts == 0).any(axis=1)
            """
        )
    )
    assert [code for _, code in codes] == ["RL802"]


def test_rl802_float_equality_fires():
    codes = _codes(
        _kernel(
            """
            uniforms = rng.random((trials, 8))
            return (uniforms == 0.5).any(axis=1)
            """
        )
    )
    assert [code for _, code in codes] == ["RL802"]


def test_rl802_explicit_int64_is_clean():
    codes = _codes(
        _kernel(
            """
            samples = distribution.sample_matrix(trials, 8, rng)
            counts = samples.astype(np.int64)
            return (counts == 0).any(axis=1)
            """
        )
    )
    assert codes == []


def test_rl802_outside_kernel_scope_is_clean():
    codes = _codes(
        """
        def tabulate(values):
            return values.astype(np.int_)
        """
    )
    assert codes == []


def _marked_lines(source):
    """Lines (as linted, after the preamble) that carry a ``# hit`` mark."""
    text = PREAMBLE + textwrap.dedent(source)
    return [
        number
        for number, line in enumerate(text.splitlines(), start=1)
        for _ in range(line.count("# hit"))
    ]


def test_rl802_dtype_keyword_and_cache_token_fire():
    source = """
        class Kernel:
            @property
            def cache_token(self):
                return {"width": np.int_(3)}  # hit
            @property
            def elements_per_trial(self):
                return np.intp(1)
            def accept_block(self, distribution, trials, rng):
                return np.zeros(trials, dtype=int) < 1  # hit
            def helper_block(self, distribution, trials, rng):
                return np.ones(trials, dtype=np.intc) != -1.0  # hit # hit
        """
    # elements_per_trial is not audited; helper_block fires on both the
    # width and the float literal.
    assert sorted(line for line, _ in _codes(source)) == _marked_lines(source)


def test_rl802_streaming_hot_methods_fire():
    source = """
        class Tester:
            def init_state(self, trials):
                return np.zeros(trials, dtype=int)
            def update(self, state, block):
                state += block.astype(int).sum(axis=1)  # hit
            def finalize(self, state):
                return state != 0.0  # hit
        """
    assert sorted(line for line, _ in _codes(source)) == _marked_lines(source)


def test_rl802_shadowed_int_is_clean():
    source = """
        from numpy import int64 as int

        class Kernel:
            @property
            def cache_token(self):
                return {}
            def accept_block(self, distribution, trials, rng):
                return distribution.sample_matrix(trials, 2, rng).astype(int)[:, 0] > 0
        """
    assert _codes(source) == []
