"""Streaming layer: batch equivalence, partition invariance, memory bounds.

The streaming contract promises three things the batch layer can check:

* every registered plugin's streamed verdicts are **bit-identical** to
  its batch counterpart (exact plugins) or to its own batch oracle
  (sketched plugins) on the same sample matrix — across every engine
  backend and worker count;
* verdicts are invariant to how the stream is chunked;
* the state never exceeds the declared per-trial ``state_bytes`` bound,
  and that bound does not grow with the universe size ``n``.

A sketched tester's cut is computed from its bucket masses without
drawing a sample; ``calibrate_sketch_threshold`` is its Monte-Carlo
cross-check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.baselines import UniqueElementsTester
from repro.core.graphs import (
    GRAPH_FAMILIES,
    ComparisonGraphTester,
    complete_graph,
    graph_statistic_block,
    midpoint_threshold,
    snap_family_size,
)
from repro.core.players import collision_counts, unique_counts
from repro.core.plugins import registered_plugins
from repro.core.streaming import (
    StreamingCollisionTester,
    StreamingDistinctTester,
    StreamingGraphTester,
    StreamingTester,
    calibrate_sketch_threshold,
    measured_state_bytes,
    run_streaming,
    sketch_buckets,
)
from repro.core.testers import CentralizedCollisionTester
from repro.distributions.discrete import DiscreteDistribution, uniform
from repro.distributions.generators import two_level_distribution
from repro.engine import (
    close_warm_backends,
    engine_context,
    estimate_acceptance,
    make_backend,
)
from repro.exceptions import InvalidParameterError
from repro.rng import ensure_rng

N, EPS = 64, 0.6
CHUNKS = (1, 2, 5, 16, None)


@pytest.fixture(scope="module", autouse=True)
def _drain_warm_pools():
    yield
    close_warm_backends()


def _matrix(q, trials=200, seed=7, far=False):
    source = two_level_distribution(N, EPS) if far else uniform(N)
    return source.sample_matrix(trials, q, ensure_rng(seed))


class TestStreamingCollision:
    def test_bit_identical_to_centralized_batch(self):
        batch = CentralizedCollisionTester(N, EPS)
        streaming = StreamingCollisionTester(N, EPS)
        assert streaming.q == batch.q
        assert streaming.statistic_threshold == batch.statistic_threshold
        for far in (False, True):
            matrix = _matrix(streaming.q, far=far)
            expected = collision_counts(matrix) <= batch.statistic_threshold
            assert np.array_equal(run_streaming(streaming, matrix), expected)

    def test_partition_invariance(self):
        streaming = StreamingCollisionTester(N, EPS)
        matrix = _matrix(streaming.q)
        reference = run_streaming(streaming, matrix, 1)
        for chunk in CHUNKS:
            assert np.array_equal(
                run_streaming(streaming, matrix, chunk), reference
            )

    def test_sketched_matches_its_batch_oracle(self):
        streaming = StreamingCollisionTester(N, EPS, num_buckets=16)
        matrix = _matrix(streaming.q)
        verdicts = run_streaming(streaming, matrix, 3)
        assert np.array_equal(verdicts, streaming.batch_verdicts(matrix))
        np.testing.assert_array_equal(
            streaming.batch_statistic(matrix),
            np.fromiter(
                (
                    (np.bincount(row) * (np.bincount(row) - 1) // 2).sum()
                    for row in sketch_buckets(matrix, 16)
                ),
                dtype=np.int64,
            ),
        )


class TestStreamingDistinct:
    def test_bit_identical_to_unique_elements_batch(self):
        batch = UniqueElementsTester(N, EPS)
        streaming = StreamingDistinctTester(N, EPS)
        assert streaming.q == batch.q
        assert streaming.statistic_threshold == batch.statistic_threshold
        for far in (False, True):
            matrix = _matrix(streaming.q, far=far)
            expected = unique_counts(matrix) >= batch.statistic_threshold
            assert np.array_equal(run_streaming(streaming, matrix), expected)

    def test_sketched_oracle_and_partition_invariance(self):
        streaming = StreamingDistinctTester(
            N, EPS, num_buckets=16, calibration_trials=300
        )
        matrix = _matrix(streaming.q)
        reference = run_streaming(streaming, matrix, 1)
        for chunk in CHUNKS:
            assert np.array_equal(
                run_streaming(streaming, matrix, chunk), reference
            )
        assert np.array_equal(reference, streaming.batch_verdicts(matrix))


class TestStreamingGraph:
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    @pytest.mark.parametrize("mode", ("edges", "distinct"))
    def test_bit_identical_to_graph_tester(self, family, mode):
        q = snap_family_size(family, 12)
        graph = GRAPH_FAMILIES[family](q)
        batch = ComparisonGraphTester(
            N, EPS, graph, mode=mode, calibration_trials=300
        )
        streaming = StreamingGraphTester(
            N, EPS, graph, mode=mode, calibration_trials=300
        )
        assert streaming.statistic_threshold == batch.statistic_threshold
        matrix = _matrix(q, far=True)
        statistics = graph_statistic_block(graph, matrix, mode)
        if mode == "distinct":
            expected = statistics >= batch.statistic_threshold
        else:
            expected = statistics <= batch.statistic_threshold
        for chunk in (1, 3, None):
            assert np.array_equal(
                run_streaming(streaming, matrix, chunk), expected
            )


class TestPluginBatchEquivalence:
    """Every registered plugin, streamed vs batch, across real backends."""

    @pytest.mark.parametrize(
        "plugin", registered_plugins().values(), ids=lambda p: p.name
    )
    def test_streamed_equals_batch_on_shared_stream(self, plugin):
        tester = plugin.factory(N, EPS)
        matrix = _matrix(tester.q, far=True)
        batch = tester.batch_verdicts(matrix)
        for chunk in CHUNKS:
            assert np.array_equal(run_streaming(tester, matrix, chunk), batch)

    @pytest.mark.parametrize("kind", ("serial", "process", "shm"))
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_kernel_estimates_match_serial_reference(self, kind, workers):
        if kind == "serial" and workers > 1:
            pytest.skip("serial backend is single-worker")
        references = {}
        for plugin in registered_plugins().values():
            kernel = plugin.factory(N, EPS)
            references[plugin.name] = estimate_acceptance(
                kernel, uniform(N), trials=300, rng=11
            )
        backend = make_backend(workers, kind=kind, fresh=True)
        try:
            with engine_context(backend=backend):
                for plugin in registered_plugins().values():
                    kernel = plugin.factory(N, EPS)
                    estimate = estimate_acceptance(
                        kernel, uniform(N), trials=300, rng=11
                    )
                    reference = references[plugin.name]
                    assert estimate.successes == reference.successes
                    assert estimate.rate == reference.rate
        finally:
            backend.close()


class TestMemoryBounds:
    @pytest.mark.parametrize(
        "plugin", registered_plugins().values(), ids=lambda p: p.name
    )
    def test_peak_state_within_declared_bound(self, plugin):
        tester = plugin.factory(N, EPS)
        trials = 64
        matrix = _matrix(tester.q, trials=trials)
        state = tester.init_state(trials)
        peak = measured_state_bytes(state)
        for start in range(0, tester.q, 4):
            tester.update(state, matrix[:, start : start + 4])
            peak = max(peak, measured_state_bytes(state))
        tester.finalize(state)
        assert peak <= tester.state_bytes * trials

    def test_sketched_state_independent_of_n(self):
        sizes = {}
        for n in (64, 1024, 65536):
            tester = StreamingCollisionTester(
                n, EPS, q=24, num_buckets=16, threshold=10.0
            )
            state = tester.init_state(8)
            matrix = uniform(n).sample_matrix(8, 24, ensure_rng(0))
            run = measured_state_bytes(state)
            tester.update(state, matrix)
            sizes[n] = max(run, measured_state_bytes(state))
            assert sizes[n] <= tester.state_bytes * 8
        assert len(set(sizes.values())) == 1

    def test_exact_state_grows_with_n_but_graph_state_does_not(self):
        graph = complete_graph(12)
        graph_bytes = {
            n: StreamingGraphTester(n, EPS, graph, threshold=5.0).state_bytes
            for n in (64, 4096)
        }
        assert graph_bytes[64] == graph_bytes[4096]
        exact_bytes = {
            n: StreamingCollisionTester(n, EPS, q=24, threshold=5.0).state_bytes
            for n in (64, 4096)
        }
        assert exact_bytes[64] < exact_bytes[4096]


class TestStreamingKernel:
    def test_cache_token_and_footprint(self):
        tester = StreamingCollisionTester(N, EPS)
        token = tester.cache_token
        assert token["kind"] == "streaming"
        assert token["class"] == "StreamingCollisionTester"
        state_elements = -(-tester.state_bytes // 8)
        assert tester.elements_per_trial == tester.q + state_elements

    def test_accept_block_bit_identical_to_batch_kernel(self):
        streaming = StreamingCollisionTester(N, EPS)
        batch = CentralizedCollisionTester(N, EPS)
        for seed in (0, 5):
            mine = streaming.accept_block(uniform(N), 150, ensure_rng(seed))
            theirs = batch.accept_block(uniform(N), 150, ensure_rng(seed))
            assert np.array_equal(mine, theirs)


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            StreamingCollisionTester(1, EPS)
        with pytest.raises(InvalidParameterError):
            StreamingCollisionTester(N, 3.0)
        with pytest.raises(InvalidParameterError):
            StreamingCollisionTester(N, EPS, num_buckets=0)
        tester = StreamingCollisionTester(N, EPS)
        with pytest.raises(InvalidParameterError):
            run_streaming(tester, _matrix(tester.q + 1))
        with pytest.raises(InvalidParameterError):
            tester.update(tester.init_state(4), np.zeros(3, dtype=np.int64))

    def test_out_of_domain_values_are_rejected_not_misbinned(self):
        """A -1 in row 1 used to be counted in row 0's last bucket, so the
        verdicts depended on the chunk width."""
        tester = StreamingCollisionTester(8, 0.5, q=4, threshold=0.5)
        matrix = np.array([[0, 1, 2, 7], [-1, 3, 5, 6]])
        with pytest.raises(InvalidParameterError):
            tester.batch_verdicts(matrix)
        for chunk in (None, 1, 2):
            with pytest.raises(InvalidParameterError):
                run_streaming(tester, matrix, chunk)

    @pytest.mark.parametrize("cls", [StreamingCollisionTester, StreamingDistinctTester])
    @pytest.mark.parametrize("num_buckets", [None, 4])
    @pytest.mark.parametrize("bad", [-1, 8, 2**40])
    def test_update_and_batch_reject_values_outside_domain(
        self, cls, num_buckets, bad
    ):
        tester = cls(8, 0.5, q=4, num_buckets=num_buckets, threshold=1.0)
        matrix = np.array([[0, 1, 2, 3], [4, 5, bad, 7]])
        with pytest.raises(InvalidParameterError):
            tester.update(tester.init_state(2), matrix)
        with pytest.raises(InvalidParameterError):
            tester.batch_statistic(matrix)
        good = np.array([[0, 1, 2, 3], [4, 5, 6, 7]])
        assert tester.batch_statistic(good).shape == (2,)

    def test_streaming_tester_is_not_a_uniformity_tester(self):
        from repro.core.testers import UniformityTester

        assert not issubclass(StreamingTester, UniformityTester)


@given(
    n=st.sampled_from([2, 3, 17, 64, 255, 1024]),
    num_buckets=st.sampled_from([2, 5, 16, 64, 1000]),
    rows=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_sketched_statistics_equal_pinned_oracles(n, num_buckets, rows, seed):
    """The bucket table reproduces sketch_buckets on every domain value."""
    rng = np.random.default_rng(seed)
    q = -(-n // rows) + int(rng.integers(0, 8))
    # Every value of [0, n) appears somewhere in the matrix.
    values = np.concatenate(
        [np.arange(n), rng.integers(0, n, size=rows * q - n)]
    )
    matrix = rng.permutation(values).reshape(rows, q)
    buckets = sketch_buckets(matrix, num_buckets)
    collision = StreamingCollisionTester(
        n, EPS, q=q, num_buckets=num_buckets, threshold=1.0
    )
    distinct = StreamingDistinctTester(
        n, EPS, q=q, num_buckets=num_buckets, threshold=1.0
    )
    np.testing.assert_array_equal(
        collision.batch_statistic(matrix), collision_counts(buckets)
    )
    np.testing.assert_array_equal(
        distinct.batch_statistic(matrix), unique_counts(buckets)
    )


SKETCH_CLASSES = [StreamingCollisionTester, StreamingDistinctTester]
MC_TRIALS = 20_000


@given(
    cls=st.sampled_from(SKETCH_CLASSES),
    n=st.sampled_from([8, 64, 300]),
    num_buckets=st.sampled_from([None, 2, 5, 40, 200]),
    widths=st.lists(st.sampled_from([1, 2, 3, 7, 16, 70]), min_size=1, max_size=8),
    rows=st.integers(min_value=1, max_value=6),
    support=st.sampled_from([1, 3, 10, None]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# Exact n = 300 (B = 300): every block but the 70-wide one is far
# narrower than B, and a 3-value support repeats values inside each.
@example(
    cls=StreamingCollisionTester, n=300, num_buckets=None, widths=[16, 7, 1, 70],
    rows=4, support=3, seed=0,
)
@example(
    cls=StreamingDistinctTester, n=300, num_buckets=None, widths=[16, 7, 1, 70],
    rows=4, support=3, seed=0,
)
@settings(max_examples=80, deadline=None)
def test_state_is_exact_after_every_update(
    cls, n, num_buckets, widths, rows, support, seed
):
    """Each update leaves the state of the bucketed prefix streamed so far.

    Column partitions mix 1-wide, narrower-than-B and wider-than-B
    blocks against one running state; a small value ``support`` repeats
    values inside a block.
    """
    rng = np.random.default_rng(seed)
    q = sum(widths)
    domain = np.arange(n) if support is None else rng.choice(n, size=support)
    matrix = rng.choice(domain, size=(rows, q))
    tester = cls(n, EPS, q=q, num_buckets=num_buckets, threshold=1.0)
    buckets = n if num_buckets is None else num_buckets
    bucketed = matrix if num_buckets is None else sketch_buckets(matrix, num_buckets)
    state = tester.init_state(rows)
    layout = {key: (array.dtype, array.shape) for key, array in state.items()}
    end = 0
    for width in widths:
        tester.update(state, matrix[:, end : end + width])
        end += width
        prefix = bucketed[:, :end]
        assert {key: (a.dtype, a.shape) for key, a in state.items()} == layout
        np.testing.assert_array_equal(
            state["histogram"],
            np.stack([np.bincount(row, minlength=buckets) for row in prefix]),
        )
        if cls is StreamingCollisionTester:
            np.testing.assert_array_equal(
                state["pair_count"], collision_counts(prefix)
            )
        assert measured_state_bytes(state) <= tester.state_bytes * rows


def _monte_carlo_midpoint(tester, trials, seed):
    """``calibrate_sketch_threshold``'s midpoint for ``tester`` and the
    standard error of the two statistic means it averages."""
    draws = []

    def statistic(matrix):
        draws.append(tester.batch_statistic(matrix))
        return draws[-1]

    midpoint = calibrate_sketch_threshold(
        statistic, tester.n, tester.epsilon, tester.q, trials=trials, rng=seed
    )
    variance = sum(float(values.var(ddof=1)) for values in draws)
    return midpoint, 0.5 * np.sqrt(variance / trials)


class TestSketchCalibration:
    """The sketched cut is the exact midpoint, computed without sampling."""

    @given(
        cls=st.sampled_from(SKETCH_CLASSES),
        n=st.integers(min_value=8, max_value=300),
        num_buckets=st.integers(min_value=2, max_value=64),
        q=st.integers(min_value=2, max_value=200),
        epsilon=st.sampled_from([0.1, 0.5, 0.9]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_exact_cut_agrees_with_monte_carlo(
        self, cls, n, num_buckets, q, epsilon, seed
    ):
        tester = cls(n, epsilon, q=q, num_buckets=num_buckets)
        midpoint, standard_error = _monte_carlo_midpoint(tester, MC_TRIALS, seed)
        # A bucket left empty with probability π per trial shows in none
        # of the trials with probability exp(-trials·π), leaving a zero
        # standard error; below π = 15/trials that beats the 5-SE rate.
        tolerance = 5 * standard_error + 15 / MC_TRIALS
        assert abs(tester.statistic_threshold - midpoint) <= tolerance

    @pytest.mark.parametrize("n", [8, 64, 1024])
    @pytest.mark.parametrize("q", [2, 37, 500])
    @pytest.mark.parametrize("epsilon", [0.1, 0.9])
    def test_identity_bucketing_is_the_analytic_midpoint(self, n, q, epsilon):
        tester = StreamingCollisionTester(n, epsilon, q=q, threshold=0.0)
        far = two_level_distribution(n, epsilon)
        cut = 0.5 * (
            tester._expected_statistic(uniform(n).pmf)
            + tester._expected_statistic(far.pmf)
        )
        expected = midpoint_threshold(complete_graph(q), n, epsilon)
        assert cut == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("cls", SKETCH_CLASSES)
    def test_sketched_construction_draws_nothing(self, cls, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sketched calibration drew samples")

        monkeypatch.setattr(DiscreteDistribution, "sample_matrix", refuse)
        tester = cls(N, EPS, q=40, num_buckets=16)
        assert np.isfinite(tester.statistic_threshold)
