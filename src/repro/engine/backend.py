"""Execution backends: one ``map_tasks`` interface, serial or parallel.

A backend runs a list of picklable ``(fn, args)`` tasks and returns their
results **in submission order**.  Determinism is owned by the caller: every
task carries its own :class:`numpy.random.SeedSequence`-derived seed, so a
task's result is independent of which backend (or worker) executes it and
of how tasks are interleaved.

``SerialBackend`` runs tasks inline; ``ProcessPoolBackend``, the one
pool, fans them out over a lazily created fork
:class:`concurrent.futures.ProcessPoolExecutor`, ships each accept
kernel once over :mod:`multiprocessing.shared_memory` and gets accepts
back as packed bits (see :mod:`repro.engine.shm`).  Every pool worker
starts by installing a :class:`SerialBackend` as its active backend,
keeping the rest of the engine configuration it starts with (under
``fork``, the parent's cache and ``max_elements``; otherwise the
defaults) — so a nested engine call inside a worker, such as the
estimates of a sweep point, runs inline and never submits to a pool.

Beyond ``map_tasks`` every backend offers:

* :meth:`~ExecutionBackend.map_accept_tiles` — the accept-kernel hook
  called by the executor's one accept-tile loop
  (:func:`~repro.engine.executor._dispatch`).  The default delegates to
  ``map_tasks``; the pool overrides it to avoid re-pickling the kernel
  per tile.
* :meth:`~ExecutionBackend.warmup` — start any lazy workers now, so
  benchmarks can exclude pool start-up from measured wall time.
* :meth:`~ExecutionBackend.dispatch_overhead_s` — the measured round-trip
  cost of one trivial dispatch, cached per backend.  The executor uses it
  to pick tile sizes that amortise dispatch.
"""

from __future__ import annotations

import atexit
import os
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..exceptions import InvalidParameterError
from . import shm
from .metrics import monotonic_clock

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: A task is a positional-argument tuple for the mapped function.
TaskArgs = Tuple[Any, ...]

#: A clock is any zero-argument callable returning seconds as a float.
Clock = Callable[[], float]

#: Trivial tasks dispatched per overhead probe (>= 2 so pool backends do
#: not take their single-task inline shortcut).
_OVERHEAD_PROBE_TASKS = 4


def _noop_task(value: int) -> int:
    """The trivial round-trip task used by overhead probes and warmup."""
    return value


class ExecutionBackend(ABC):
    """Strategy interface for running independent Monte Carlo tasks."""

    #: Short name used in CLI output and benchmark records.
    name: str = "backend"

    #: Lazily measured dispatch cost (seconds per task round-trip).
    _dispatch_overhead: Optional[float] = None

    @abstractmethod
    def map_tasks(
        self, fn: Callable[..., Any], tasks: Sequence[TaskArgs]
    ) -> List[Any]:
        """Run ``fn(*args)`` for every args-tuple, preserving order."""

    def map_accept_tiles(
        self,
        kernel: Any,
        distribution: Any,
        tiles: Sequence[Sequence[Any]],
        root_entropy: int,
    ) -> List[Any]:
        """Accept vectors for a batch of tiles, preserving tile order.

        The generic path ships ``(kernel, distribution)`` inside every
        task; backends with a cheaper transport override this.
        """
        from .executor import _accepts_tile

        tasks = [(kernel, distribution, tile, root_entropy) for tile in tiles]
        return self.map_tasks(_accepts_tile, tasks)

    def warmup(self) -> None:
        """Start any lazily created workers now (idempotent no-op here)."""

    def dispatch_overhead_s(self, clock: Optional[Clock] = None) -> float:
        """Measured seconds per trivial task round-trip (cached).

        Warmup runs first, so the figure prices steady-state dispatch —
        pickling, queueing and result transport — not worker start-up.
        """
        if self._dispatch_overhead is None:
            ticker = clock if clock is not None else monotonic_clock
            self.warmup()
            tasks = [(i,) for i in range(_OVERHEAD_PROBE_TASKS)]
            start = ticker()
            self.map_tasks(_noop_task, tasks)
            elapsed = max(0.0, ticker() - start)
            self._dispatch_overhead = elapsed / _OVERHEAD_PROBE_TASKS
        return self._dispatch_overhead

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Run every task inline on the calling thread."""

    name = "serial"

    def map_tasks(
        self, fn: Callable[..., Any], tasks: Sequence[TaskArgs]
    ) -> List[Any]:
        return [fn(*args) for args in tasks]


def _serial_worker() -> None:
    """Pool initializer: run the worker's own engine calls inline.

    A forked worker inherits the parent's active configuration, whose
    backend is this very pool; submitting to that copy would hang.  The
    replaced configuration stays referenced from the worker's module
    state, so its forked backend is never finalised (and never unlinks
    the parent's shared-memory segments).
    """
    from dataclasses import replace

    from .config import get_engine, set_engine

    global _PARENT_ENGINE
    _PARENT_ENGINE = set_engine(replace(get_engine(), backend=SerialBackend()))


#: The configuration a pool worker started with (see :func:`_serial_worker`).
_PARENT_ENGINE: Any = None


class _Shipment(NamedTuple):
    """Parent-side record of the live shared (kernel, distribution) blob.

    Holding the shipped objects both identifies the pair on later calls
    and keeps it alive while its segment is published.
    """

    token: str
    segment: Any
    blob_size: int
    kernel: Any
    distribution: Any


class ProcessPoolBackend(ExecutionBackend):
    """Fork pool with one-shot kernel shipping over shared memory.

    Parameters
    ----------
    max_workers:
        Pool width; defaults to ``os.cpu_count()``.  The pool is created
        on first use and kept alive for the lifetime of the backend so
        repeated ``map_tasks`` calls amortise worker start-up.

    Single-task calls short-circuit to inline execution — there is no
    point paying pickling latency for one tile.

    Shipping lifecycle: the first ``map_accept_tiles`` call for a given
    ``(kernel, distribution)`` pair pickles it once into a named
    :mod:`multiprocessing.shared_memory` segment and registers it in the
    parent's :mod:`repro.engine.shm` registry.  Tiles then travel as
    ``(token, segment, tile, root_entropy)`` tuples; each worker
    rehydrates on first sight (or inherits the registry outright when
    forked after the shipment) and returns its accept vector as packed
    bits.  Only the live shipment is kept: shipping a new pair unlinks
    the previous segment (every call waits for its tiles, so no task can
    still need it), and workers drop older pairs as they rehydrate, so a
    long search over fresh kernels holds one segment, not one per
    estimate.  ``close()`` unlinks it and shuts the pool down.

    The pool uses the ``fork`` start method where available, so freshly
    forked workers inherit already-registered shipments for free;
    elsewhere the interpreter default applies and workers attach via the
    segment name.
    """

    name = "shm"

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers: int = max_workers or os.cpu_count() or 1
        self._executor: Optional["ProcessPoolExecutor"] = None
        self._shipment: Optional[_Shipment] = None
        self._shipped = 0

    def _pool(self) -> "ProcessPoolExecutor":
        if self._executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            try:
                context: Any = multiprocessing.get_context("fork")
            except ValueError:
                context = None
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=context,
                initializer=_serial_worker,
            )
        return self._executor

    def map_tasks(
        self, fn: Callable[..., Any], tasks: Sequence[TaskArgs]
    ) -> List[Any]:
        if len(tasks) <= 1:
            return [fn(*args) for args in tasks]
        futures = [self._pool().submit(fn, *args) for args in tasks]
        return [future.result() for future in futures]

    def _ship(self, kernel: Any, distribution: Any) -> _Shipment:
        """Publish ``(kernel, distribution)`` once; reuse on later calls."""
        shipment = self._shipment
        if (
            shipment is not None
            and shipment.kernel is kernel
            and shipment.distribution is distribution
        ):
            return shipment
        from multiprocessing import shared_memory

        self._release_shipment()
        # A fresh token per shipment: workers may still hold a retired
        # pair under an older one.
        self._shipped += 1
        token = f"{os.getpid()}-{id(self):x}-{self._shipped}"
        blob = shm.serialize_shipment(kernel, distribution)
        segment = shared_memory.SharedMemory(create=True, size=max(1, len(blob)))
        try:
            segment.buf[: len(blob)] = blob
            # Fork-inheritance fast path: workers forked after this line
            # see the pair without ever touching the segment.
            shm.register_shipment(token, kernel, distribution)
        except BaseException:
            # Nothing owns the segment yet: without this it would linger
            # in /dev/shm until the resource tracker exits.
            segment.close()
            segment.unlink()
            raise
        shipment = _Shipment(token, segment, len(blob), kernel, distribution)
        self._shipment = shipment
        return shipment

    def map_accept_tiles(
        self,
        kernel: Any,
        distribution: Any,
        tiles: Sequence[Sequence[Any]],
        root_entropy: int,
    ) -> List[Any]:
        shipment = self._ship(kernel, distribution)
        pool = self._pool()
        futures = [
            pool.submit(
                shm.run_shipped_tile,
                shipment.token,
                shipment.segment.name,
                shipment.blob_size,
                tile,
                root_entropy,
            )
            for tile in tiles
        ]
        results: List[Any] = []
        for future in futures:
            trials, packed = future.result()
            results.append(shm.unpack_accepts(trials, packed))
        return results

    def warmup(self) -> None:
        """Spin up every worker with one trivial task per pool slot.

        Benchmarks call this before timing so measured wall time prices
        dispatch, not interpreter start-up in the workers.
        """
        pool = self._pool()
        futures = [
            pool.submit(_noop_task, index) for index in range(self.max_workers)
        ]
        for future in futures:
            future.result()

    def _release_shipment(self) -> None:
        """Unlink the held segment and forget its registry entry."""
        # getattr: __init__ may have raised before _shipment was bound.
        shipment = getattr(self, "_shipment", None)
        if shipment is not None:
            self._shipment = None
            shm.forget_shipment(shipment.token)
            try:
                shipment.segment.close()
                shipment.segment.unlink()
            except (FileNotFoundError, OSError):
                pass

    def close(self) -> None:
        self._release_shipment()
        # getattr: __init__ may have raised before _executor was bound,
        # and __del__ still runs on the half-constructed object.
        if getattr(self, "_executor", None) is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._dispatch_overhead = None

    def __del__(self) -> None:  # best-effort cleanup; close() is the real API
        try:
            self.close()
        except (OSError, RuntimeError, ImportError):
            # Interpreter teardown can have already reaped the pool's
            # machinery (dead pipes, a shut-down executor).  Anything
            # else — above all a worker task's own exception — must
            # surface, not vanish inside __del__.
            pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


#: Warm pools kept alive across make_backend calls: width → backend.
_WARM_BACKENDS: Dict[int, ProcessPoolBackend] = {}

#: Backend kinds make_backend understands.
BACKEND_KINDS = ("serial", "shm")


def close_warm_backends() -> int:
    """Shut down every cached warm pool; returns the number closed."""
    closed = 0
    for backend in list(_WARM_BACKENDS.values()):
        backend.close()
        closed += 1
    _WARM_BACKENDS.clear()
    return closed


# Warm pools outlive every function scope, so interpreter exit is the
# only release point: without this hook the shm segment of a warm pool
# is reported as leaked by the resource tracker and pool workers are
# reaped by the OS instead of shut down.
atexit.register(close_warm_backends)


def make_backend(
    workers: Optional[int],
    kind: Optional[str] = None,
    fresh: bool = False,
) -> ExecutionBackend:
    """CLI-flag semantics: ``None``/``0``/``1`` → serial, else a pool.

    ``workers`` alone picks the backend.  ``kind`` (``"serial"`` or
    ``"shm"``) forces one; it stays only because the benchmarks —
    ``benchmarks/e2e/workload.py`` among them — call
    ``make_backend(2, kind="shm", fresh=True)``.  Pool backends are
    reused warm across calls (one pool per width for the process
    lifetime) so successive ``estimate_acceptance`` sweeps never churn
    worker start-up; pass ``fresh=True`` for a private instance the
    caller owns and closes.
    """
    if kind is not None and kind not in BACKEND_KINDS:
        raise InvalidParameterError(
            f"unknown backend kind {kind!r}; expected one of {BACKEND_KINDS}"
        )
    if kind is None:
        kind = "serial" if (workers is None or workers <= 1) else "shm"
    if kind == "serial":
        return SerialBackend()
    width = workers if workers and workers >= 1 else (os.cpu_count() or 1)
    if fresh:
        return ProcessPoolBackend(max_workers=width)
    backend = _WARM_BACKENDS.get(width)
    if backend is None:
        backend = _WARM_BACKENDS[width] = ProcessPoolBackend(max_workers=width)
    return backend
