"""Result records, text rendering and JSON persistence for experiments."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from ..exceptions import InvalidParameterError

#: Version of the on-disk JSON schema written by :meth:`ExperimentResult.
#: to_json` and the only one :meth:`ExperimentResult.from_json` reads.
#: Version 2 added the ``schema_version`` and ``provenance`` fields.
SCHEMA_VERSION = 2


@dataclass
class ExperimentResult:
    """The outcome of one experiment run.

    Attributes
    ----------
    experiment_id:
        The DESIGN.md identifier, e.g. ``"e01"``.
    title:
        Human-readable claim being reproduced.
    rows:
        Homogeneous list of dict rows (the regenerated "table").
    summary:
        Headline comparisons: paper claim vs measured value, plus pass
        verdicts.  Keys are free-form strings; values printable.
    notes:
        Caveats and methodology remarks recorded at run time.
    metrics:
        Engine instrumentation for the run (samples drawn, tiles
        executed, cache hits, wall time) — attached by the registry, see
        :mod:`repro.engine.metrics`.
    provenance:
        How the result was produced: seed, scale, spec hash, engine
        configuration, sweep-point accounting — stamped by
        :func:`repro.experiments.harness.run_spec` so any row can be
        traced back to the exact declarative sweep that emitted it.
    """

    experiment_id: str
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **fields: Any) -> None:
        """Append one table row."""
        self.rows.append(dict(fields))

    def column(self, name: str) -> List[Any]:
        """Extract one column across all rows."""
        missing = [i for i, row in enumerate(self.rows) if name not in row]
        if missing:
            raise InvalidParameterError(
                f"column {name!r} missing from rows {missing[:3]}"
            )
        return [row[name] for row in self.rows]

    def to_json(self) -> str:
        """Serialize to versioned JSON (numpy scalars coerced to native)."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "rows": [_jsonable(row) for row in self.rows],
            "summary": _jsonable(self.summary),
            "notes": list(self.notes),
            "metrics": _jsonable(self.metrics),
            "provenance": _jsonable(self.provenance),
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output.

        A document whose ``schema_version`` is not :data:`SCHEMA_VERSION`
        raises :class:`InvalidParameterError`.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise InvalidParameterError(f"invalid result JSON: {error}") from error
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise InvalidParameterError(
                f"unsupported result schema_version {version!r}; "
                f"supported: {SCHEMA_VERSION}"
            )
        for key in ("experiment_id", "title"):
            if key not in payload:
                raise InvalidParameterError(f"result JSON missing {key!r}")
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            rows=list(payload.get("rows", [])),
            summary=dict(payload.get("summary", {})),
            notes=list(payload.get("notes", [])),
            metrics=dict(payload.get("metrics", {})),
            provenance=dict(payload.get("provenance", {})),
        )

    def render(self) -> str:
        """Render the result as an aligned ASCII report."""
        lines = [f"== {self.experiment_id.upper()}: {self.title} =="]
        if self.rows:
            lines.append(render_table(self.rows))
        if self.summary:
            lines.append("-- summary --")
            for key, value in self.summary.items():
                lines.append(f"  {key}: {_format_value(value)}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.metrics and any(self.metrics.values()):
            lines.append("-- engine metrics --")
            for key, value in self.metrics.items():
                lines.append(f"  {key}: {_format_value(value)}")
        if self.provenance:
            seed = self.provenance.get("seed")
            scale = self.provenance.get("scale")
            spec_hash = self.provenance.get("spec_hash", "")
            lines.append(
                f"-- provenance: scale={scale} seed={seed} "
                f"spec={spec_hash[:12]} --"
            )
        return "\n".join(lines)


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays and containers to JSON-native types."""
    import numpy as np

    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_table(rows: Sequence[Dict[str, Any]]) -> str:
    """Align a list of dict rows into a plain-text table."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    formatted = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in formatted))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in formatted
    ]
    return "\n".join([header, separator] + body)
