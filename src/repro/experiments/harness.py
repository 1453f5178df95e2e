"""The declarative experiment harness: specs, sweeps, checkpoints.

Every experiment module declares one :class:`ExperimentSpec` — named
scales, a sweep planner, a per-point task, and a fold step — instead of
hand-rolling its own ``SCALES`` dict and serial ``for`` loop.
:func:`run_spec` turns a spec into an :class:`~repro.experiments.records.
ExperimentResult` by dispatching the sweep points through
:func:`repro.engine.sweep.map_sweep_points`:

* **parallel across points** — each point is one backend task, so
  ``--workers N`` overlaps whole acceptance searches;
* **deterministic** — point ``i`` always runs on the generator spawned
  from ``(seed, i)``, so payloads are bit-identical across backends,
  worker counts, and resume boundaries;
* **resumable** — with a checkpoint directory, each completed point is
  persisted as JSON; an interrupted sweep re-run with ``resume=True``
  restores finished points and computes only the remainder;
* **provenance-rich** — the result is stamped with the seed, scale,
  spec hash and engine configuration that produced it.

The spec's callables must be module-level functions (they are shipped to
worker processes by reference) and every point payload must be
JSON-able; the harness normalises payloads through a JSON round-trip so
a restored point is indistinguishable from a freshly computed one.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import shutil
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..engine import get_engine, map_sweep_points
from ..engine.cache import atomic_write_text
from ..exceptions import InvalidParameterError
from .records import SCHEMA_VERSION, ExperimentResult, _jsonable

#: Scales every spec must define.  ``smoke`` feeds the CI gate, ``small``
#: the benchmark suite, ``paper`` the EXPERIMENTS.md regeneration run.
REQUIRED_SCALES = ("smoke", "small", "paper")

#: Version of the harness run/checkpoint layout (bumped on breaking
#: changes so stale checkpoint trees are never silently mixed in).
HARNESS_VERSION = 1

#: A sweep planner: scale params -> ordered list of point dicts.
SweepFn = Callable[[Mapping[str, Any]], Sequence[Mapping[str, Any]]]

#: A per-point task: (point, params, generator) -> JSON-able payload.
PointFn = Callable[..., Any]

#: The fold step: (result, params, points, payloads) -> None (mutates).
FoldFn = Callable[
    [ExperimentResult, Mapping[str, Any], List[Dict[str, Any]], List[Any]], None
]


def _normalise(value: Any) -> Any:
    """Canonicalise a payload exactly as a checkpoint round-trip would.

    Freshly computed and checkpoint-restored payloads must be
    indistinguishable to the fold step, so every payload passes through
    the same JSON encode/decode (tuples become lists, numpy scalars
    become native numbers) whether or not it ever touched disk.
    """
    return json.loads(json.dumps(_jsonable(value)))


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment: scales + sweep + per-point task + fold.

    Attributes
    ----------
    experiment_id:
        The DESIGN.md identifier (``"e01"`` ... ``"e19"``).
    title:
        Human-readable claim, copied onto every result.
    scales:
        Named parameter sets.  Must include every scale in
        :data:`REQUIRED_SCALES`; all scales share one key schema.
    sweep:
        Maps a scale's params to the ordered list of sweep points
        (plain dicts).  Must be deterministic — the plan is part of the
        spec hash that guards checkpoint compatibility.
    point:
        Module-level function ``(point, params, rng) -> payload``
        executed once per sweep point, possibly in a worker process.
        ``rng`` is the point's own spawned generator.
    fold:
        ``(result, params, points, payloads) -> None`` — assembles rows,
        summary and notes on the result from the ordered payloads.
    """

    experiment_id: str
    title: str
    scales: Mapping[str, Mapping[str, Any]]
    sweep: SweepFn
    point: PointFn
    fold: FoldFn

    def __post_init__(self) -> None:
        if not self.experiment_id or not self.experiment_id.startswith("e"):
            raise InvalidParameterError(
                f"experiment_id must look like 'eNN', got {self.experiment_id!r}"
            )
        missing = [s for s in REQUIRED_SCALES if s not in self.scales]
        if missing:
            raise InvalidParameterError(
                f"{self.experiment_id}: spec missing required scales {missing}"
            )
        schemas = {name: frozenset(params) for name, params in self.scales.items()}
        reference = schemas[REQUIRED_SCALES[0]]
        for name in sorted(schemas):
            if schemas[name] != reference:
                raise InvalidParameterError(
                    f"{self.experiment_id}: scale {name!r} parameter keys "
                    f"differ from {REQUIRED_SCALES[0]!r}"
                )

    def scale_names(self) -> List[str]:
        """The spec's scale names, required ones first."""
        extras = sorted(name for name in self.scales if name not in REQUIRED_SCALES)
        return [*REQUIRED_SCALES, *extras]

    def scale_params(self, scale: str) -> Dict[str, Any]:
        """The parameter dict for ``scale`` (validated)."""
        if scale not in self.scales:
            raise InvalidParameterError(
                f"unknown scale {scale!r} for {self.experiment_id}; "
                f"known: {self.scale_names()}"
            )
        return dict(self.scales[scale])

    def spec_hash(self) -> str:
        """A stable fingerprint of the spec's identity and behaviour.

        Covers the id, title, scale tables, and the *source code* of the
        sweep/point/fold callables, so edited experiment logic
        invalidates old checkpoints instead of silently mixing payloads
        from two different programs.  The source is read once per spec
        instance, so a later edit of the file on disk does not change the
        hash of the code already loaded.
        """
        return self._spec_hash

    @cached_property
    def _spec_hash(self) -> str:
        material = {
            "harness_version": HARNESS_VERSION,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "scales": _jsonable({k: dict(v) for k, v in sorted(self.scales.items())}),
            "sweep": _callable_fingerprint(self.sweep),
            "point": _callable_fingerprint(self.point),
            "fold": _callable_fingerprint(self.fold),
        }
        digest = hashlib.sha256(
            json.dumps(material, sort_keys=True).encode("utf-8")
        )
        return digest.hexdigest()

    def plan(self, scale: str) -> List[Dict[str, Any]]:
        """The normalised, ordered sweep plan for ``scale``."""
        params = self.scale_params(scale)
        points = [_normalise(dict(point)) for point in self.sweep(params)]
        if not points:
            raise InvalidParameterError(
                f"{self.experiment_id}: sweep produced no points at scale {scale!r}"
            )
        return points


def _callable_fingerprint(fn: Callable[..., Any]) -> str:
    """Source-based identity for a spec callable (qualname fallback)."""
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        source = ""
    name = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
    return hashlib.sha256(f"{name}\n{source}".encode("utf-8")).hexdigest()


class SweepCheckpoint:
    """On-disk record of a sweep in progress: one JSON file per point.

    Layout (under the caller's checkpoint directory)::

        <dir>/<experiment_id>/<scale>-seed<seed>/
            manifest.json     # spec hash + plan size; guards compatibility
            point-0000.json   # payload of completed point 0
            ...

    Writes are atomic (temp file + ``os.replace``) so a killed run never
    leaves a truncated payload behind.
    """

    MANIFEST = "manifest.json"

    def __init__(
        self,
        directory: str,
        experiment_id: str,
        scale: str,
        seed: int,
        spec_hash: str,
        total_points: int,
    ):
        self.run_dir = os.path.join(directory, experiment_id, f"{scale}-seed{seed}")
        self.manifest = {
            "harness_version": HARNESS_VERSION,
            "experiment_id": experiment_id,
            "scale": scale,
            "seed": seed,
            "spec_hash": spec_hash,
            "total_points": total_points,
        }

    def _manifest_path(self) -> str:
        return os.path.join(self.run_dir, self.MANIFEST)

    def _point_path(self, index: int) -> str:
        return os.path.join(self.run_dir, f"point-{index:04d}.json")

    def _manifest_matches(self) -> bool:
        path = self._manifest_path()
        if not os.path.exists(path):
            return False
        try:
            with open(path, encoding="utf-8") as handle:
                existing = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return False
        return existing == self.manifest

    def begin(self, resume: bool) -> Dict[int, Any]:
        """Prepare the run directory; return payloads restored from disk.

        A fresh run (or a resume whose manifest does not match this
        spec/seed/scale — e.g. the experiment code changed) wipes the
        stale tree and starts empty.
        """
        restored: Dict[int, Any] = {}
        if resume and self._manifest_matches():
            for index in range(int(self.manifest["total_points"])):
                path = self._point_path(index)
                if not os.path.exists(path):
                    continue
                try:
                    with open(path, encoding="utf-8") as handle:
                        restored[index] = json.load(handle)
                except (OSError, json.JSONDecodeError):
                    continue  # truncated/corrupt point: recompute it
            return restored
        if os.path.isdir(self.run_dir):
            shutil.rmtree(self.run_dir)
        os.makedirs(self.run_dir, exist_ok=True)
        self._atomic_write(self._manifest_path(), self.manifest)
        return restored

    def record(self, index: int, payload: Any) -> None:
        """Persist one completed point (atomic)."""
        self._atomic_write(self._point_path(index), payload)

    def _atomic_write(self, path: str, payload: Any) -> None:
        os.makedirs(self.run_dir, exist_ok=True)
        atomic_write_text(path, json.dumps(payload, indent=2))


def run_spec(
    spec: ExperimentSpec,
    scale: str = "small",
    seed: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> ExperimentResult:
    """Execute a spec's sweep and fold the payloads into a result.

    Points are dispatched through the active engine backend.  When
    ``checkpoint_dir`` is given, completed points are persisted in
    dispatch waves (sized to the backend's worker count) and
    ``resume=True`` restores any compatible previous progress instead of
    recomputing it.  The returned result carries a full provenance
    block; rows and summary are bit-identical for a given ``(spec,
    scale, seed)`` no matter the backend, worker count, or how many
    times the sweep was interrupted and resumed.
    """
    points = spec.plan(scale)
    params = spec.scale_params(scale)
    root_seed = int(seed)
    spec_hash = spec.spec_hash()

    checkpoint: Optional[SweepCheckpoint] = None
    done: Dict[int, Any] = {}
    if checkpoint_dir is not None:
        checkpoint = SweepCheckpoint(
            checkpoint_dir, spec.experiment_id, scale, root_seed,
            spec_hash, len(points),
        )
        done = checkpoint.begin(resume)
    restored = len(done)

    pending = [index for index in range(len(points)) if index not in done]
    config = get_engine()
    wave_size = len(pending)
    if checkpoint is not None:
        wave_size = max(1, int(getattr(config.backend, "max_workers", 1)))
    for start in range(0, len(pending), max(1, wave_size)):
        wave = pending[start : start + max(1, wave_size)]
        payloads = map_sweep_points(
            spec.point,
            [points[index] for index in wave],
            params,
            root_seed,
            wave,
        )
        for index, payload in zip(wave, payloads):
            done[index] = _normalise(payload)
            if checkpoint is not None:
                checkpoint.record(index, done[index])

    ordered = [done[index] for index in range(len(points))]
    result = ExperimentResult(experiment_id=spec.experiment_id, title=spec.title)
    spec.fold(result, params, points, ordered)
    result.provenance = {
        "schema_version": SCHEMA_VERSION,
        "harness_version": HARNESS_VERSION,
        "experiment_id": spec.experiment_id,
        "scale": scale,
        "seed": root_seed,
        "spec_hash": spec_hash,
        "points_total": len(points),
        "points_computed": len(points) - restored,
        "points_restored": restored,
        "engine": {
            "backend": config.backend.name,
            "workers": int(getattr(config.backend, "max_workers", 1)),
            "max_elements": config.max_elements,
            "cache": config.cache is not None,
        },
    }
    return result
