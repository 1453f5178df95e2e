"""Tests for ExperimentResult JSON round-tripping and schema versioning."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments import ExperimentResult
from repro.experiments.records import SCHEMA_VERSION

FIXTURE_V2 = os.path.join(os.path.dirname(__file__), "data", "result_v2.json")


class TestJsonRoundTrip:
    def test_basic_round_trip(self):
        result = ExperimentResult("e01", "demo")
        result.add_row(n=16, q_star=4, ratio=0.5)
        result.summary["exponent"] = -0.5
        result.notes.append("a note")
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.experiment_id == "e01"
        assert restored.title == "demo"
        assert restored.rows == result.rows
        assert restored.summary == result.summary
        assert restored.notes == result.notes

    def test_numpy_scalars_coerced(self):
        result = ExperimentResult("e02", "numpy types")
        result.add_row(
            count=np.int64(7),
            value=np.float64(1.5),
            flag=np.bool_(True),
            vector=np.array([1.0, 2.0]),
        )
        restored = ExperimentResult.from_json(result.to_json())
        row = restored.rows[0]
        assert row["count"] == 7
        assert row["value"] == 1.5
        assert row["flag"] is True
        assert row["vector"] == [1.0, 2.0]

    def test_provenance_round_trip(self):
        result = ExperimentResult("e03", "provenance")
        result.provenance = {
            "schema_version": SCHEMA_VERSION,
            "scale": "smoke",
            "seed": 3,
            "spec_hash": "deadbeef",
            "engine": {"backend": "serial", "workers": 1},
        }
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.provenance == result.provenance

    def test_live_experiment_serializes(self):
        from repro.experiments import run_experiment

        result = run_experiment("e10", scale="smoke")
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.summary == result.summary
        assert restored.provenance == result.provenance
        assert restored.provenance["schema_version"] == SCHEMA_VERSION

    def test_invalid_json_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExperimentResult.from_json("{not json")

    def test_missing_fields_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExperimentResult.from_json('{"schema_version": 2, "title": "no id"}')


class TestSchemaVersioning:
    def test_to_json_stamps_current_version(self):
        document = json.loads(ExperimentResult("e01", "t").to_json())
        assert document["schema_version"] == SCHEMA_VERSION

    def test_v1_document_rejected(self):
        """A version-1 document (pre-harness, no ``schema_version``) no
        longer loads: only the current schema is read back."""
        legacy = json.dumps(
            {
                "experiment_id": "e01",
                "title": "pre-harness",
                "rows": [{"n": 8}],
                "summary": {"ok": True},
                "notes": [],
            }
        )
        with pytest.raises(InvalidParameterError, match="schema_version"):
            ExperimentResult.from_json(legacy)

    def test_unsupported_version_rejected(self):
        document = json.dumps(
            {"schema_version": 99, "experiment_id": "e01", "title": "future"}
        )
        with pytest.raises(InvalidParameterError, match="schema_version"):
            ExperimentResult.from_json(document)


class TestPinnedOnDiskFormat:
    """The v2 on-disk format is pinned byte-for-byte by a fixture file."""

    def _fixture_result(self) -> ExperimentResult:
        result = ExperimentResult("e99", "pinned fixture")
        result.add_row(n=16, q_star=4)
        result.summary["exponent"] = -0.5
        result.notes.append("pinned")
        result.metrics = {"sweep_points": 2}
        result.provenance = {
            "schema_version": 2,
            "harness_version": 1,
            "experiment_id": "e99",
            "scale": "smoke",
            "seed": 7,
            "spec_hash": "abc123",
            "points_total": 2,
            "points_computed": 2,
            "points_restored": 0,
            "engine": {
                "backend": "serial",
                "workers": 1,
                "max_elements": 4194304,
                "cache": False,
            },
        }
        return result

    def test_fixture_loads(self):
        with open(FIXTURE_V2, encoding="utf-8") as handle:
            text = handle.read()
        restored = ExperimentResult.from_json(text)
        assert restored.experiment_id == "e99"
        assert restored.provenance["spec_hash"] == "abc123"
        assert restored.metrics == {"sweep_points": 2}

    def test_serialization_matches_fixture_exactly(self):
        with open(FIXTURE_V2, encoding="utf-8") as handle:
            text = handle.read()
        assert self._fixture_result().to_json() == text.rstrip("\n")
