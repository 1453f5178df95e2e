"""Shared-memory kernel shipping for the pool backends.

The plain process-pool path pickles ``(kernel, distribution)`` into every
tile task, so a sweep over heavy kernels (large pmfs, calibrated
protocols) pays serialisation per dispatch.  This module implements the
one-shot alternative used by
:class:`~repro.engine.backend.SharedMemoryBackend`:

* the parent pickles the pair **once** into a named
  :mod:`multiprocessing.shared_memory` segment and registers it under a
  ship token;
* workers rehydrate lazily into a process-local registry that keeps only
  the latest pair — and, when the pool uses the POSIX ``fork`` start
  method, children spawned after the shipment inherit the parent's
  registry entry outright and never touch the segment;
* tile results travel back as ``numpy.packbits``-packed bytes (one bit
  per trial) instead of pickled ndarrays.

Everything here must stay importable by worker processes, so the module
keeps no configuration state beyond the registry.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Sequence, Tuple

import numpy as np

#: Process-local rehydration registry: ship token → (kernel, distribution).
#: In the parent it doubles as the fork-inheritance fast path; in workers
#: it caches whatever was rehydrated from shared memory.
_REGISTRY: Dict[str, Tuple[Any, Any]] = {}


def register_shipment(token: str, kernel: Any, distribution: Any) -> None:
    """Record a shipment in this process's registry (parent side)."""
    _REGISTRY[token] = (kernel, distribution)


def forget_shipment(token: str) -> None:
    """Drop a shipment from this process's registry (idempotent)."""
    _REGISTRY.pop(token, None)


def _attach_segment(name: str) -> Any:
    """Attach an existing shared-memory segment without adopting ownership.

    On Python < 3.13 attaching registers the segment with the process's
    resource tracker, which would unlink it when *this* process exits even
    though the parent still owns it (and, in fork pools sharing one
    tracker daemon, would evict the parent's own registration).  Python
    3.13+ exposes ``track=False`` for exactly this; older versions get
    the same effect by silencing the tracker's ``register`` for the
    duration of the attach.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register

    def _skip_shm(resource_name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original_register(resource_name, rtype)

    resource_tracker.register = _skip_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def serialize_shipment(kernel: Any, distribution: Any) -> bytes:
    """The byte blob a shipment stores in its segment."""
    return pickle.dumps((kernel, distribution), protocol=pickle.HIGHEST_PROTOCOL)


def rehydrate(token: str, segment_name: str, blob_size: int) -> Tuple[Any, Any]:
    """The shipped ``(kernel, distribution)`` pair, cached per process.

    A backend keeps only its latest shipment live, so a new token retires
    every pair rehydrated (or inherited) before it.
    """
    entry = _REGISTRY.get(token)
    if entry is None:
        segment = _attach_segment(segment_name)
        try:
            entry = pickle.loads(bytes(segment.buf[:blob_size]))
        finally:
            segment.close()
        _REGISTRY.clear()
        _REGISTRY[token] = entry
    return entry


def pack_accepts(accepts: np.ndarray) -> Tuple[int, bytes]:
    """Compress a boolean accept vector to (trial count, packed bits)."""
    array = np.asarray(accepts, dtype=bool)
    return int(array.size), np.packbits(array).tobytes()


def unpack_accepts(trials: int, packed: bytes) -> np.ndarray:
    """Invert :func:`pack_accepts` back to a boolean vector."""
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=trials)
    return bits.astype(bool)


def run_shipped_tile(
    token: str,
    segment_name: str,
    blob_size: int,
    tile: Sequence[Any],
    root_entropy: int,
) -> Tuple[int, bytes]:
    """Worker entry point: one tile of a shipped kernel, bit-packed."""
    kernel, distribution = rehydrate(token, segment_name, blob_size)
    from .executor import _accepts_tile

    return pack_accepts(_accepts_tile(kernel, distribution, tile, root_entropy))
