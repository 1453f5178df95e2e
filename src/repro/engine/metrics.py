"""Per-run instrumentation counters for the Monte Carlo engine.

Every execution that flows through the engine increments a small set of
counters on the *active* :class:`EngineMetrics` instance:

``protocol_trials``
    Monte Carlo protocol executions actually performed (a cache hit
    performs zero).
``samples_drawn``
    Total i.i.d. samples materialised across all tiles.
``tiles_executed`` / ``rng_blocks``
    Work units dispatched to the backend and fixed-size RNG blocks
    computed inside them.
``cache_hits`` / ``cache_misses``
    Acceptance-curve cache outcomes.
``calibration_hits`` / ``calibration_misses``
    Calibration-memo outcomes (counted apart from the estimate cache).
``wall_time_s``
    Wall-clock seconds spent inside engine dispatch.

Experiments wrap their run in :func:`collect_metrics` so the registry can
attach a fresh snapshot to each :class:`~repro.experiments.records.
ExperimentResult`; nested collections merge back into the enclosing scope
so session-wide totals stay correct.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator

def monotonic_clock() -> float:
    """Monotonic seconds from :func:`time.perf_counter`.

    The engine's default injectable clock: this module is allowlisted by
    the wall-clock lint rule, so backend overhead probes and the tile
    auto-sizer borrow their clock from here (or accept an injected one)
    instead of reading ``time`` directly.
    """
    return time.perf_counter()


#: Counter names every snapshot reports (zero-filled when untouched).
COUNTER_NAMES = (
    "protocol_trials",
    "samples_drawn",
    "tiles_executed",
    "rng_blocks",
    "cache_hits",
    "cache_misses",
    "calibration_hits",
    "calibration_misses",
    "wall_time_s",
)


class EngineMetrics:
    """A mutable bag of engine counters.

    Counters are plain numbers; ``wall_time_s`` is a float, everything
    else integral.  Instances are cheap and not thread-safe by design —
    the engine mutates only the process-local active instance.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {name: 0 for name in COUNTER_NAMES}

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (created on first use)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def get(self, name: str) -> float:
        """Current value of a counter (0 if never touched)."""
        return self._counters.get(name, 0)

    @contextmanager
    def timed(self, name: str = "wall_time_s") -> Iterator[None]:
        """Context manager accumulating elapsed wall seconds into ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.count(name, time.perf_counter() - start)

    def merge(self, other: "EngineMetrics") -> None:
        """Fold another metrics object's counters into this one."""
        for name, value in other._counters.items():
            self.count(name, value)

    def reset(self) -> None:
        """Zero every counter."""
        self._counters = {name: 0 for name in COUNTER_NAMES}

    def snapshot(self) -> Dict[str, float]:
        """A JSON-friendly copy of the counters (ints kept integral)."""
        out: Dict[str, float] = {}
        for name, value in self._counters.items():
            if name == "wall_time_s":
                out[name] = round(float(value), 6)
            else:
                out[name] = int(value) if float(value).is_integer() else float(value)
        return out

    def summary_line(self) -> str:
        """One-line human summary for CLI footers."""
        s = self.snapshot()
        return (
            f"trials={s['protocol_trials']} samples={s['samples_drawn']} "
            f"tiles={s['tiles_executed']} cache={s['cache_hits']}/"
            f"{s['cache_hits'] + s['cache_misses']} "
            f"wall={s['wall_time_s']:.3f}s"
        )

    def __repr__(self) -> str:
        return f"EngineMetrics({self.snapshot()})"


@contextmanager
def collect_metrics() -> Iterator[EngineMetrics]:
    """Install a fresh metrics scope on the active engine config.

    Yields the fresh :class:`EngineMetrics`; on exit the scope's counters
    are merged into the enclosing metrics object so outer totals include
    the nested run.
    """
    from .config import get_engine

    config = get_engine()
    outer = config.metrics
    inner = EngineMetrics()
    config.metrics = inner
    try:
        yield inner
    finally:
        config.metrics = outer
        outer.merge(inner)
