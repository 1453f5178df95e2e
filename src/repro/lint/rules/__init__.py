"""Built-in lint rules; importing this package registers them all."""

from . import (
    citations,
    engine_bypass,
    engine_perf,
    purity,
    rng,
    shapes,
    streams,
    wallclock,
)

__all__ = [
    "citations",
    "engine_bypass",
    "engine_perf",
    "purity",
    "rng",
    "shapes",
    "streams",
    "wallclock",
]
