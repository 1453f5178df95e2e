"""The active engine configuration.

One process-global :class:`EngineConfig` tells every Monte Carlo call
which backend to dispatch tiles on, how large a tile may grow, whether an
acceptance cache is attached, where counters accumulate, and which
clock times the first tile of a parallel batch.  The default — serial
backend, 4M-element tiles, no cache — reproduces the library's
historical single-process behaviour.

Use :func:`configure_engine` (or the CLI flags it backs) to install a
different configuration, and :func:`engine_context` to scope one to a
``with`` block — tests and benchmarks use the context form so they cannot
leak state into each other.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..exceptions import InvalidParameterError
from .backend import ExecutionBackend, SerialBackend, make_backend
from .cache import AcceptanceCache
from .metrics import EngineMetrics, monotonic_clock

#: Default per-tile sample-tensor budget (int64 elements → 32 MiB).
DEFAULT_MAX_ELEMENTS = 4_194_304


@dataclass
class EngineConfig:
    """Everything the executor needs to run one Monte Carlo batch.

    On parallel backends the first tile of a multi-tile batch runs inline
    under ``clock`` to measure per-trial cost, and the remaining RNG
    blocks are regrouped to amortise dispatch (see
    :func:`~repro.engine.executor._dispatch`).  Because regrouping never
    splits RNG blocks, results stay bit-identical to any other tiling.
    ``clock`` is injectable so tests can drive the sizer deterministically.
    """

    backend: ExecutionBackend = field(default_factory=SerialBackend)
    max_elements: int = DEFAULT_MAX_ELEMENTS
    cache: Optional[AcceptanceCache] = None
    metrics: EngineMetrics = field(default_factory=EngineMetrics)
    clock: Callable[[], float] = field(default=monotonic_clock)

    def __post_init__(self) -> None:
        if self.max_elements < 1:
            raise InvalidParameterError(
                f"max_elements must be >= 1, got {self.max_elements}"
            )


_ACTIVE = EngineConfig()


def get_engine() -> EngineConfig:
    """The configuration every engine call consults."""
    return _ACTIVE


def set_engine(config: EngineConfig) -> EngineConfig:
    """Install ``config`` as the active configuration; returns the old one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, config
    return previous


def configure_engine(
    workers: Optional[int] = None,
    max_elements: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> EngineConfig:
    """Build and install a configuration from CLI-style scalars.

    ``workers``: ``None``/``0``/``1`` → serial, else the warm pool of
    that width.
    ``cache_dir``: ``None`` disables the acceptance cache.
    """
    config = EngineConfig(
        backend=make_backend(workers),
        max_elements=max_elements or DEFAULT_MAX_ELEMENTS,
        cache=AcceptanceCache(cache_dir) if cache_dir else None,
    )
    set_engine(config)
    return config


@contextmanager
def engine_context(
    backend: Optional[ExecutionBackend] = None,
    max_elements: Optional[int] = None,
    cache: Optional[AcceptanceCache] = None,
    clock: Optional[Callable[[], float]] = None,
) -> Iterator[EngineConfig]:
    """Scope an engine configuration to a ``with`` block.

    Unspecified fields inherit from the currently active configuration;
    metrics always continue accumulating on the enclosing scope's object
    so a context never hides work from its caller.
    """
    current = get_engine()
    scoped = EngineConfig(
        backend=backend if backend is not None else current.backend,
        max_elements=(
            max_elements if max_elements is not None else current.max_elements
        ),
        cache=cache if cache is not None else current.cache,
        metrics=current.metrics,
        clock=clock if clock is not None else current.clock,
    )
    previous = set_engine(scoped)
    try:
        yield scoped
    finally:
        set_engine(previous)
