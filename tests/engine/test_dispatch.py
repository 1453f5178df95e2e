"""The one accept-tile loop: tile/worker invariance and the consume hook.

``executor._dispatch`` is the only place accept tiles are planned,
dispatched and counted; fixed budgets, SPRT and ``chunked_accepts`` all
run through it.  These tests pin its contract directly: every estimate
is a pure function of ``(kernel, distribution, mode, root entropy)``,
whatever the trial count, tile budget, backend or timing clock; the RNG
blocks of one dispatch (and the sweep points of one experiment) each get
a stream of their own; and a ``consume`` callback sees blocks strictly
in index order and stops the loop for good.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributions.discrete import uniform
from repro.engine import (
    RNG_BLOCK_TRIALS,
    AcceptanceCache,
    ProcessPoolBackend,
    SerialBackend,
    SprtSpec,
    block_seed,
    collect_metrics,
    derive_root_entropy,
    engine_context,
    estimate_acceptance,
    point_seed,
)
from repro.engine.executor import _dispatch
from repro.exceptions import InvalidParameterError
from tests.oracles import BernoulliKernel

DISTRIBUTION = uniform(8)


@pytest.fixture(scope="module")
def backends():
    """Serial plus a warm 2-worker pool."""
    pool = ProcessPoolBackend(max_workers=2)
    pool.warmup()
    yield {"serial": SerialBackend(), "shm": pool}
    pool.close()


def _estimate(kernel, mode, trials, seed):
    if mode == "fixed":
        return estimate_acceptance(kernel, DISTRIBUTION, trials=trials, rng=seed)
    spec = SprtSpec(target=0.5, margin=0.1, max_trials=trials)
    return estimate_acceptance(kernel, DISTRIBUTION, sprt=spec, rng=seed)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    trials=st.integers(1, 12 * RNG_BLOCK_TRIALS + 9),
    max_elements=st.integers(1, 8 * RNG_BLOCK_TRIALS),
    kind=st.sampled_from(["serial", "shm"]),
    mode=st.sampled_from(["fixed", "sprt"]),
    probability=st.sampled_from([0.4, 0.5, 0.55, 0.6]),
    clock_step=st.sampled_from([None, 1e-9, 1e-3, 1.0]),
    seed=st.integers(0, 2**40),
)
def test_estimate_invariant_to_tiling_backend_and_clock(
    backends, trials, max_elements, kind, mode, probability, clock_step, seed
):
    kernel = BernoulliKernel(probability)
    with engine_context(backend=SerialBackend(), max_elements=10**9):
        reference = _estimate(kernel, mode, trials, seed)
    # A fake clock steers the cost-model regrouping of parallel plans.
    clock = None
    if clock_step is not None:
        clock = itertools.count(0.0, clock_step).__next__
    with engine_context(
        backend=backends[kind], max_elements=max_elements, clock=clock
    ):
        estimate = _estimate(kernel, mode, trials, seed)
    assert estimate == reference


class _StreamRecorder:
    """Accepts everything; records the initial state of each block stream."""

    elements_per_trial = 1

    def __init__(self):
        self.streams = []

    def accept_block(self, distribution, trials, rng):
        state = rng.bit_generator.state["state"]
        self.streams.append((state["state"], state["inc"]))
        return np.ones(trials, dtype=bool)


@settings(max_examples=30, deadline=None)
@given(
    root=st.integers(0, 2**63 - 1),
    trials=st.integers(4 * RNG_BLOCK_TRIALS, 8 * RNG_BLOCK_TRIALS + 9),
    max_elements=st.integers(1, 4 * RNG_BLOCK_TRIALS),
)
def test_block_streams_are_pairwise_distinct(root, trials, max_elements):
    recorder = _StreamRecorder()
    with engine_context(backend=SerialBackend(), max_elements=max_elements):
        _dispatch(recorder, DISTRIBUTION, trials, root, 1)
    assert len(recorder.streams) == -(-trials // RNG_BLOCK_TRIALS)
    assert len(set(recorder.streams)) == len(recorder.streams)


@settings(max_examples=30, deadline=None)
@given(root=st.integers(0, 2**63 - 1), points=st.integers(2, 48))
def test_sweep_point_seeds_are_pairwise_distinct(root, points):
    """Distinct points get distinct seeds, none shared with a batch block.

    An experiment seed may double as the root entropy of a batch, so the
    sweep-point domain must not collide with the block-seed domain.
    """
    point_states = {tuple(point_seed(root, i).generate_state(4)) for i in range(points)}
    block_states = {tuple(block_seed(root, i).generate_state(4)) for i in range(points)}
    assert len(point_states) == points
    assert not point_states & block_states


@pytest.mark.parametrize("kind", ["serial", "shm"])
class TestConsume:
    TRIALS = 20 * RNG_BLOCK_TRIALS + 5

    def _run(self, backends, kind, consume):
        with engine_context(backend=backends[kind], max_elements=RNG_BLOCK_TRIALS):
            with collect_metrics() as metrics:
                accepts = _dispatch(
                    BernoulliKernel(0.5), DISTRIBUTION, self.TRIALS, 7, 1, consume
                )
        return accepts, metrics

    def test_stop_drops_every_later_block(self, backends, kind):
        seen = []

        def consume(block, accepts):
            assert accepts.size == block.trials
            seen.append(block)
            return block.index == 3

        accepts, _ = self._run(backends, kind, consume)
        full, _ = self._run(backends, kind, None)
        assert [block.index for block in seen] == [0, 1, 2, 3]
        assert accepts.size == sum(block.trials for block in seen)
        assert np.array_equal(accepts, full[: accepts.size])

    def test_without_stop_every_block_is_consumed_in_order(self, backends, kind):
        seen = []

        def consume(block, accepts):
            seen.append(block)
            return False

        accepts, metrics = self._run(backends, kind, consume)
        full, _ = self._run(backends, kind, None)
        assert [block.index for block in seen] == list(range(len(seen)))
        assert sum(block.trials for block in seen) == self.TRIALS
        assert np.array_equal(accepts, full)
        assert metrics.get("protocol_trials") == self.TRIALS
        assert metrics.get("rng_blocks") == len(seen)


class TestNegativeSeeds:
    @pytest.mark.parametrize("seed", [-1, np.int64(-5)])
    def test_root_entropy_rejects_negative_integers(self, seed):
        with pytest.raises(InvalidParameterError, match="seed must be >= 0"):
            derive_root_entropy(seed)

    def test_estimate_rejects_negative_seed_before_any_work(self, tmp_path):
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            with collect_metrics() as metrics:
                with pytest.raises(InvalidParameterError):
                    estimate_acceptance(
                        BernoulliKernel(0.5), DISTRIBUTION, trials=100, rng=-1
                    )
        assert metrics.get("cache_misses") == 0
        assert metrics.get("protocol_trials") == 0
