"""Tests for the execution backends and their map_tasks contract."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.engine import (
    BACKEND_KINDS,
    ProcessPoolBackend,
    SerialBackend,
    close_warm_backends,
    configure_engine,
    get_engine,
    make_backend,
    set_engine,
)
from repro.engine.backend import ExecutionBackend
from repro.exceptions import InvalidParameterError
from tests.oracles import BernoulliKernel

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _square(x):
    return x * x


def _fail(x):
    raise ValueError(f"boom {x}")


def _worker_shipments(prefix):
    """(pid, shipments under ``prefix``) held by the worker running this."""
    import time

    from repro.engine import shm

    time.sleep(0.05)  # keep this worker busy so its peers take tasks too
    return os.getpid(), sum(token.startswith(prefix) for token in shm._REGISTRY)


def _segment_exists(name):
    from repro.engine import shm

    try:
        segment = shm._attach_segment(name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


class TestSerialBackend:
    def test_order_preserved(self):
        backend = SerialBackend()
        assert backend.map_tasks(_square, [(3,), (1,), (2,)]) == [9, 1, 4]

    def test_empty_task_list(self):
        assert SerialBackend().map_tasks(_square, []) == []

    def test_is_backend(self):
        assert isinstance(SerialBackend(), ExecutionBackend)


class TestProcessPoolBackend:
    def test_order_preserved(self):
        backend = ProcessPoolBackend(max_workers=2)
        try:
            assert backend.map_tasks(_square, [(i,) for i in range(8)]) == [
                i * i for i in range(8)
            ]
        finally:
            backend.close()

    def test_single_task_runs_inline(self):
        backend = ProcessPoolBackend(max_workers=2)
        assert backend.map_tasks(_square, [(5,)]) == [25]
        # No pool should have been created for the inline fast path.
        assert backend._executor is None
        backend.close()

    def test_worker_exception_propagates(self):
        backend = ProcessPoolBackend(max_workers=2)
        try:
            with pytest.raises(ValueError, match="boom"):
                backend.map_tasks(_fail, [(1,), (2,)])
        finally:
            backend.close()

    def test_close_is_idempotent(self):
        backend = ProcessPoolBackend(max_workers=2)
        backend.map_tasks(_square, [(1,), (2,)])
        backend.close()
        backend.close()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(InvalidParameterError):
            ProcessPoolBackend(max_workers=0)


class TestSharedMemoryBackend:
    """The pool's one-shot kernel shipping over shared memory."""

    def test_pool_is_named_shm_and_forks(self):
        backend = ProcessPoolBackend(max_workers=2)
        try:
            assert backend.name == "shm"
            context = backend._pool()._mp_context
            assert context.get_start_method() == "fork"
        finally:
            backend.close()

    def test_close_unlinks_shipments(self):
        from repro.engine import (
            derive_root_entropy,
            plan_blocks,
            plan_tiles,
        )

        backend = ProcessPoolBackend(max_workers=2)
        kernel = BernoulliKernel(0.5)
        from repro.distributions.discrete import uniform

        distribution = uniform(8)
        blocks = plan_blocks(256)
        tiles = plan_tiles(blocks, 1, max_elements=64)
        accepts = backend.map_accept_tiles(
            kernel, distribution, tiles, derive_root_entropy(0)
        )
        assert sum(a.size for a in accepts) == 256
        name = backend._shipment.segment.name
        assert _segment_exists(name)
        backend.close()
        assert backend._shipment is None
        assert not _segment_exists(name)

    def test_same_pair_ships_once(self):
        from repro.distributions.discrete import uniform

        backend = ProcessPoolBackend(max_workers=2)
        kernel, distribution = BernoulliKernel(0.5), uniform(8)
        try:
            first = backend._ship(kernel, distribution)
            assert backend._ship(kernel, distribution) is first
            assert backend._ship(kernel, uniform(8)) is not first
        finally:
            backend.close()


class TestShipmentLifetime:
    """A pool holds the live shipment only, not one per estimate."""

    def test_distinct_kernels_leave_one_segment_and_registry_entry(self):
        from repro.distributions.discrete import uniform
        from repro.engine import engine_context, estimate_acceptance

        backend = ProcessPoolBackend(max_workers=2)
        names = set()
        try:
            with engine_context(backend=backend, max_elements=64):
                for index in range(30):
                    estimate_acceptance(
                        BernoulliKernel(0.2 + index / 50),
                        uniform(8),
                        trials=512,
                        rng=index,
                    )
                    names.add(backend._shipment.segment.name)
            assert len(names) == 30  # every estimate shipped a new pair
            assert sum(_segment_exists(name) for name in names) == 1
            prefix = f"{os.getpid()}-{id(backend):x}-"
            held = backend.map_tasks(_worker_shipments, [(prefix,)] * 8)
            assert all(count <= 1 for _, count in held), held
        finally:
            backend.close()
        assert not any(_segment_exists(name) for name in names)

    def test_failed_ship_unlinks_its_segment(self, monkeypatch):
        """A ship that fails after creating its segment unlinks it before
        the error propagates: no shipment owns the segment yet."""
        from multiprocessing import shared_memory

        from repro.distributions.discrete import uniform
        from repro.engine import shm

        created = []
        create = shared_memory.SharedMemory

        def recording(*args, **kwargs):
            segment = create(*args, **kwargs)
            created.append(segment.name)
            return segment

        def refuse(token, kernel, distribution):
            raise RuntimeError("registry refused")

        monkeypatch.setattr(shared_memory, "SharedMemory", recording)
        monkeypatch.setattr(shm, "register_shipment", refuse)
        backend = ProcessPoolBackend(max_workers=2)
        try:
            with pytest.raises(RuntimeError, match="registry refused"):
                backend._ship(BernoulliKernel(0.5), uniform(8))
            assert backend._shipment is None
        finally:
            backend.close()
        monkeypatch.undo()
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            shm._attach_segment(created[0]).close()


class TestNestedDispatch:
    """Engine calls inside pool workers must not submit to the parent pool."""

    def test_sweep_points_with_multi_tile_estimates_finish(self):
        script = textwrap.dedent(
            """
            from repro.distributions.discrete import uniform
            from repro.engine import (
                SprtSpec,
                configure_engine,
                estimate_acceptance,
                map_sweep_points,
            )
            from tests.oracles import BernoulliKernel

            def task(point, params, generator):
                kernel = BernoulliKernel(point["p"])
                fixed = estimate_acceptance(kernel, uniform(8), trials=1000, rng=5)
                spec = SprtSpec(target=0.5, margin=0.1, max_trials=2048)
                sprt = estimate_acceptance(kernel, uniform(8), sprt=spec, rng=5)
                return [fixed.successes, sprt.trials_used, sprt.successes]

            points = [{"p": p} for p in (0.3, 0.5, 0.7)]
            rows = []
            for workers in (1, 2):
                # 64 elements per tile: every estimate spans several tiles.
                configure_engine(workers=workers, max_elements=64)
                rows.append(map_sweep_points(task, points, {}, 0, [0, 1, 2]))
            assert rows[0] == rows[1], rows
            print("RAN", rows[1])
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(_REPO_ROOT, "src"), _REPO_ROOT])
        # Own session: a hang is killed with its pool workers, not orphaned.
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("nested engine dispatch inside a pool worker hung")
        assert child.returncode == 0, stderr
        assert stdout.startswith("RAN")


class TestDispatchOverhead:
    def test_serial_overhead_is_measured_and_cached(self):
        backend = SerialBackend()
        first = backend.dispatch_overhead_s()
        assert first >= 0.0
        assert backend.dispatch_overhead_s() == first

    def test_pool_overhead_positive_and_reset_on_close(self):
        backend = ProcessPoolBackend(max_workers=2)
        try:
            overhead = backend.dispatch_overhead_s()
            assert overhead > 0.0
            assert backend._dispatch_overhead == overhead
        finally:
            backend.close()
        assert backend._dispatch_overhead is None

    def test_warmup_spins_up_pool(self):
        backend = ProcessPoolBackend(max_workers=2)
        try:
            assert backend._executor is None
            backend.warmup()
            assert backend._executor is not None
        finally:
            backend.close()


class TestMakeBackend:
    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_for_trivial_widths(self, workers):
        assert isinstance(make_backend(workers), SerialBackend)

    def test_pool_for_wider(self):
        backend = make_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 3

    def test_kind_selects_backend_class(self):
        try:
            assert isinstance(make_backend(2, kind="shm"), ProcessPoolBackend)
            assert isinstance(make_backend(2, kind="serial"), SerialBackend)
        finally:
            close_warm_backends()

    def test_default_parallel_kind_is_shm(self):
        try:
            assert make_backend(2).name == "shm"
        finally:
            close_warm_backends()

    def test_warm_pool_reused_across_calls(self):
        try:
            first = make_backend(2)
            assert make_backend(2, kind="shm") is first
            assert make_backend(3) is not first
        finally:
            close_warm_backends()

    def test_fresh_bypasses_warm_pool(self):
        try:
            warm = make_backend(2)
            fresh = make_backend(2, kind="shm", fresh=True)
            assert fresh is not warm
            fresh.close()
        finally:
            close_warm_backends()

    @pytest.mark.parametrize("kind", ["threads", "process"])
    def test_rejects_unknown_kind(self, kind):
        with pytest.raises(InvalidParameterError):
            make_backend(2, kind=kind)

    def test_backend_kinds_constant(self):
        assert BACKEND_KINDS == ("serial", "shm")

    def test_shm_kind_keeps_width_one_on_a_pool(self):
        backend = make_backend(1, kind="shm", fresh=True)
        try:
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.max_workers == 1
        finally:
            backend.close()


class TestConfigureEngine:
    """``workers`` alone picks the installed backend."""

    def test_workers_pick_serial_or_the_warm_pool(self):
        previous = get_engine()
        try:
            assert isinstance(configure_engine(workers=1).backend, SerialBackend)
            pool = configure_engine(workers=2).backend
            assert pool is make_backend(2)
            assert get_engine().backend is pool
        finally:
            set_engine(previous)
            close_warm_backends()

    def test_backend_keyword_is_gone(self):
        previous = get_engine()
        try:
            with pytest.raises(TypeError):
                configure_engine(workers=2, backend="shm")
            assert get_engine() is previous
        finally:
            set_engine(previous)


class TestWarmPoolAtexitTeardown:
    """Interpreter exit must not leak warm shm segments."""

    def test_exit_with_warm_shm_backend_leaves_no_tracker_warnings(self):
        """A subprocess that uses a warm pool backend and exits
        without closing it must trigger the atexit hook: clean exit, no
        ``resource_tracker`` leak warnings on stderr."""
        script = textwrap.dedent(
            """
            from repro.distributions.discrete import uniform
            from repro.engine import (
                engine_context,
                estimate_acceptance,
                make_backend,
            )
            from tests.oracles import BernoulliKernel

            backend = make_backend(2, kind="shm")
            # Small tiles, so the estimate is dispatched to the pool and
            # its kernel is shipped through a shared-memory segment.
            with engine_context(backend=backend, max_elements=64):
                result = estimate_acceptance(
                    BernoulliKernel(0.7), uniform(8), trials=512, rng=7
                )
            assert result.trials_used == 512
            assert backend._shipment is not None
            print("RAN", result.successes)
            # Deliberately no backend.close()/close_warm_backends():
            # the registered atexit hook owns warm-pool teardown.
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(_REPO_ROOT, "src"), _REPO_ROOT])
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("RAN")
        assert "resource_tracker" not in result.stderr, result.stderr
        assert "leaked" not in result.stderr, result.stderr
