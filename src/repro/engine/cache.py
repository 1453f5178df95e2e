"""On-disk acceptance-curve and calibration cache.

``empirical_sample_complexity`` probes the same (tester, distribution,
mode, seed) points on every re-run of an experiment.  Every probe is a
pure function of its fingerprint, so the engine memoises the estimated
acceptance rate in one small JSON file per probe under a
content-addressed name.

Keys combine:

* a **kernel cache token** — the stable identity of the computation
  (kernel kind + per-kernel version + tester fingerprint: class name,
  every primitive constructor outcome, and, for protocol-backed testers,
  the player/referee description).  Because the token names the *kind* of
  kernel, a closeness or network curve can never collide with a protocol
  curve that happens to share (n, q, k, seed);
* a **distribution fingerprint** — SHA-256 of the exact pmf bytes;
* the estimation **mode** — fixed trial budget or SPRT spec;
* the derived root-entropy seed identity.

Entries store the full :class:`~repro.engine.estimate.AcceptanceEstimate`
payload (rate, trials used, sequential verdict), keeping the cache a few
hundred bytes per probe even for million-trial runs.

The same directory memoises the testers' Monte-Carlo threshold
calibrations under ``calib-`` names: :func:`cached_calibration` wraps a
calibrator and keys each call by the calibrator's name and version plus
every argument it was called with (see ``docs/performance.md``,
"Calibration cache").

An entry is served only when its stored key equals the requested key, so
a corrupt, stale, copied or renamed file reads as a miss and is
overwritten by the next write.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import os
from typing import Any, Callable, Dict, List, Mapping, Optional, TypeVar

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import RngLike

#: Bump when the cached payload or key layout changes incompatibly.
#: Version 2: kernel-identity keys + full-estimate payloads.
#: Version 3: a homogeneous protocol keys as one ``{"homogeneous": k}``
#: player entry, and ``K_q`` as ``(family, q)`` without an edge hash.
CACHE_VERSION = 3

#: File-name prefixes of acceptance-estimate and calibration entries.
ESTIMATE_PREFIX = "accept-"
CALIBRATION_PREFIX = "calib-"


def distribution_fingerprint(distribution: Any) -> str:
    """Content hash of a :class:`DiscreteDistribution`'s exact pmf."""
    digest = hashlib.sha256(np.ascontiguousarray(distribution.pmf).tobytes())
    return f"n{distribution.n}-{digest.hexdigest()[:24]}"


def _primitive_items(obj: Any) -> Dict[str, Any]:
    items: Dict[str, Any] = {}
    for key, value in sorted(vars(obj).items()):
        if isinstance(value, (bool, int, float, str)) or value is None:
            items[key] = value
        elif isinstance(value, (np.integer, np.floating)):
            items[key] = value.item()
    return items


def protocol_fingerprint(protocol: Any) -> Dict[str, Any]:
    """Stable description of a :class:`SimultaneousProtocol`.

    A homogeneous protocol (one shared strategy object and sample count,
    the test :func:`~repro.core.protocol.protocol_bits` uses to draw one
    ``trials·k × q`` matrix) is one entry naming ``k``; any other lists
    every player, so the key also states the draw layout.
    """
    players: Any
    if protocol.is_homogeneous:
        first = protocol.players[0]
        players = {
            "homogeneous": protocol.num_players,
            "strategy": first.strategy.name,
            "q": first.num_samples,
        }
    else:
        players = [
            {"strategy": player.strategy.name, "q": player.num_samples}
            for player in protocol.players
        ]
    return {
        "players": players,
        "referee": {
            "name": protocol.referee.name,
            **_primitive_items(protocol.referee),
        },
    }


def tester_fingerprint(tester: Any) -> Dict[str, Any]:
    """Stable description of a tester (or raw protocol) configuration."""
    parts: Dict[str, Any] = {"class": type(tester).__name__}
    if hasattr(tester, "players") and hasattr(tester, "referee"):
        parts.update(protocol_fingerprint(tester))
        return parts
    parts.update(_primitive_items(tester))
    protocol = getattr(tester, "_protocol", None)
    if protocol is not None:
        parts["protocol"] = protocol_fingerprint(protocol)
    return parts


def seed_fingerprint(seed: np.random.SeedSequence) -> str:
    """Identity of a derived seed: root entropy plus spawn key."""
    return f"{seed.entropy}:{','.join(str(k) for k in seed.spawn_key)}"


def kernel_probe_key(
    kernel: Any,
    distribution: Any,
    mode: Dict[str, Any],
    root_entropy: int,
) -> Dict[str, Any]:
    """The full cache key for one kernel-based acceptance estimate.

    ``mode`` is the estimation-mode descriptor (``{"trials": N}`` or
    ``{"sprt": {...}}``); the kernel's ``cache_token`` carries the
    identity and version of the computation itself.
    """
    return {
        "version": CACHE_VERSION,
        "kernel": dict(kernel.cache_token),
        "distribution": (
            "none" if distribution is None else distribution_fingerprint(distribution)
        ),
        "mode": mode,
        "seed": str(int(root_entropy)),
    }


def cacheable_seed(rng: RngLike) -> bool:
    """Whether ``rng`` names a reusable seed identity worth caching.

    Integer seeds and seed sequences recur across runs; a live generator
    (or fresh OS entropy) yields a one-off root that would only litter
    the cache directory.
    """
    if isinstance(rng, bool):
        return False
    return isinstance(rng, (int, np.integer, np.random.SeedSequence))


def calibration_key(
    calibrator: str, version: int, arguments: Mapping[str, Any]
) -> Optional[Dict[str, Any]]:
    """The cache key naming one calibration call, or ``None`` if some
    argument has no stable identity.

    Floats enter by ``repr`` (exact), objects with a ``cache_token``
    (comparison graphs) by that token and the ``rng`` seed by
    :func:`seed_fingerprint`.  A callable argument ``f`` has no content
    identity: it is named by the ``f_token`` argument beside it, and the
    call is not cached when that token is ``None``.
    """
    fields: Dict[str, Any] = {}
    for name, value in arguments.items():
        if name == "rng":
            seed = value
            if not isinstance(seed, np.random.SeedSequence):
                seed = np.random.SeedSequence(int(value))
            fields[name] = seed_fingerprint(seed)
        elif callable(value):
            if arguments.get(f"{name}_token") is None:
                return None
        elif hasattr(value, "cache_token"):
            fields[name] = dict(value.cache_token)
        elif isinstance(value, dict):
            fields[name] = value
        elif isinstance(value, (int, np.integer)):
            fields[name] = int(value)
        elif isinstance(value, (float, np.floating)):
            fields[name] = repr(float(value))
        else:
            return None
    return {
        "version": CACHE_VERSION,
        "calibrator": calibrator,
        "calibrator_version": int(version),
        "arguments": fields,
    }


def _calibration_value(value: Any) -> Any:
    """A stored calibration result (lists back to tuples), or ``None``
    unless it is a number or a non-empty list of numbers."""
    items = value if isinstance(value, list) else [value]
    if not items or not all(
        isinstance(item, (int, float)) and not isinstance(item, bool)
        for item in items
    ):
        return None
    return tuple(value) if isinstance(value, list) else value


_Calibrator = TypeVar("_Calibrator", bound=Callable[..., Any])


def cached_calibration(version: int) -> Callable[[_Calibrator], _Calibrator]:
    """Memoise a Monte-Carlo calibrator in the engine's acceptance cache.

    The calibrator takes its seed as ``rng`` and returns a number or a
    tuple of numbers.  A call is read from (or written to) a
    ``calib-<digest>.json`` entry only when ``get_engine().cache`` is set,
    the seed is reusable (:func:`cacheable_seed`) and every argument has
    a stable identity (:func:`calibration_key`); otherwise it just runs.
    Floats round-trip exactly through JSON and ints stay ints, so a hit
    returns the computed value bit for bit.  Bump ``version`` whenever
    the calibrator's draw order or statistic changes.
    """

    def decorate(calibrator: _Calibrator) -> _Calibrator:
        signature = inspect.signature(calibrator)

        @functools.wraps(calibrator)
        def memoised(*args: Any, **kwargs: Any) -> Any:
            from .config import get_engine  # config imports this module

            config = get_engine()
            cache = config.cache
            if cache is None:
                return calibrator(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = None
            if cacheable_seed(bound.arguments["rng"]):
                key = calibration_key(calibrator.__name__, version, bound.arguments)
            if key is None:
                return calibrator(*args, **kwargs)
            payload = cache._read(key, CALIBRATION_PREFIX)
            if payload is not None:
                cached = _calibration_value(payload.get("value"))
                if cached is not None:
                    config.metrics.count("calibration_hits")
                    return cached
            config.metrics.count("calibration_misses")
            result = calibrator(*args, **kwargs)
            cache._write(key, {"key": key, "value": result}, CALIBRATION_PREFIX)
            return result

        return memoised  # type: ignore[return-value]

    return decorate


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a same-directory temp file and a
    rename, so no reader ever observes a torn file.

    The temp name carries the pid, keeping concurrent writers apart.  A
    failed write or rename removes the temp file before re-raising, since
    nothing else would: :meth:`AcceptanceCache.clear` and ``len()`` count
    only finished entries.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _canonical(key: Any) -> str:
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


class AcceptanceCache:
    """A directory of content-addressed acceptance-rate and calibration
    memo files."""

    def __init__(self, cache_dir: str):
        if not cache_dir:
            raise InvalidParameterError("cache_dir must be a non-empty path")
        self.cache_dir = os.path.abspath(cache_dir)
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
        except OSError as error:
            raise InvalidParameterError(
                f"cache_dir {self.cache_dir!r} is not a usable directory: {error}"
            ) from error

    def _path(self, canonical_key: str, prefix: str) -> str:
        digest = hashlib.sha256(canonical_key.encode("utf-8")).hexdigest()
        return os.path.join(self.cache_dir, f"{prefix}{digest[:40]}.json")

    def _read(
        self, key: Dict[str, Any], prefix: str = ESTIMATE_PREFIX
    ) -> Optional[Dict[str, Any]]:
        """One entry's payload dict, or ``None`` unless the file parses and
        stores exactly ``key`` (compared as canonical JSON, so tuples
        match lists).  A stale version is a differing key."""
        canonical_key = _canonical(key)
        try:
            with open(
                self._path(canonical_key, prefix), "r", encoding="utf-8"
            ) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if _canonical(payload.get("key")) != canonical_key:
            return None
        return payload

    def _write(
        self,
        key: Dict[str, Any],
        payload: Dict[str, Any],
        prefix: str = ESTIMATE_PREFIX,
    ) -> str:
        """Persist one entry atomically; returns the entry path.

        The write goes through a same-directory temp file + rename so
        concurrent processes never observe a torn entry.
        """
        path = self._path(_canonical(key), prefix)
        atomic_write_text(path, json.dumps(payload, sort_keys=True))
        return path

    def get_estimate(self, key: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The memoised estimate payload, or ``None`` on a miss.

        Corrupt or stale-format entries read as misses and are
        overwritten by the next ``put_estimate``.
        """
        payload = self._read(key)
        if payload is None:
            return None
        estimate = payload.get("estimate")
        return estimate if isinstance(estimate, dict) else None

    def put_estimate(self, key: Dict[str, Any], estimate: Dict[str, Any]) -> str:
        """Persist one full estimate payload; returns the entry path."""
        return self._write(key, {"key": key, "estimate": dict(estimate)})

    def _entries(self) -> List[str]:
        # Sorted so deletion (and any interleaved failure) happens in a
        # reproducible order independent of directory-listing order.
        return sorted(
            name
            for name in os.listdir(self.cache_dir)
            if name.startswith((ESTIMATE_PREFIX, CALIBRATION_PREFIX))
            and name.endswith(".json")
        )

    def __len__(self) -> int:
        return len(self._entries())

    def clear(self) -> int:
        """Delete every estimate and calibration entry; returns the number
        removed."""
        names = self._entries()
        for name in names:
            os.remove(os.path.join(self.cache_dir, name))
        return len(names)

    def __repr__(self) -> str:
        return f"AcceptanceCache({self.cache_dir!r}, entries={len(self)})"
