"""The shared Monte Carlo execution engine.

Backends (serial / process pool), chunked streaming, the on-disk
acceptance-curve cache and per-run metrics — see ``docs/performance.md``
for the architecture tour.
"""

from .backend import (
    BACKEND_KINDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    SharedMemoryBackend,
    close_warm_backends,
    make_backend,
)
from .cache import (
    AcceptanceCache,
    distribution_fingerprint,
    kernel_probe_key,
    tester_fingerprint,
)
from .chunking import (
    RNG_BLOCK_TRIALS,
    Block,
    plan_blocks,
    plan_tiles,
    tile_trials,
)
from .config import (
    DEFAULT_MAX_ELEMENTS,
    EngineConfig,
    configure_engine,
    engine_context,
    get_engine,
    set_engine,
)
from .estimate import AcceptanceEstimate, KernelBase, SprtSpec, estimate_acceptance
from .executor import (
    block_seed,
    chunked_accepts,
    derive_root_entropy,
)
from .kernels import (
    KERNEL_SCHEMA_VERSION,
    AcceptKernel,
    kernel_label,
    require_kernel,
)
from .metrics import EngineMetrics, collect_metrics, monotonic_clock
from .sweep import (
    SWEEP_SPAWN_DOMAIN,
    map_sweep_points,
    point_seed,
    run_sweep_point,
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "SharedMemoryBackend",
    "BACKEND_KINDS",
    "close_warm_backends",
    "make_backend",
    "AcceptanceCache",
    "distribution_fingerprint",
    "tester_fingerprint",
    "kernel_probe_key",
    "AcceptKernel",
    "KERNEL_SCHEMA_VERSION",
    "kernel_label",
    "require_kernel",
    "AcceptanceEstimate",
    "KernelBase",
    "SprtSpec",
    "estimate_acceptance",
    "Block",
    "RNG_BLOCK_TRIALS",
    "plan_blocks",
    "plan_tiles",
    "tile_trials",
    "EngineConfig",
    "DEFAULT_MAX_ELEMENTS",
    "configure_engine",
    "engine_context",
    "get_engine",
    "set_engine",
    "chunked_accepts",
    "block_seed",
    "derive_root_entropy",
    "EngineMetrics",
    "collect_metrics",
    "monotonic_clock",
    "SWEEP_SPAWN_DOMAIN",
    "point_seed",
    "run_sweep_point",
    "map_sweep_points",
]
