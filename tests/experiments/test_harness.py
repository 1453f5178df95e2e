"""Tests for the declarative experiment harness (spec/sweep/checkpoint)."""

from __future__ import annotations

import inspect
import json
import os

import numpy as np
import pytest

from repro.engine import engine_context, get_engine
from repro.engine.backend import ProcessPoolBackend
from repro.engine.sweep import map_sweep_points, point_seed, run_sweep_point
from repro.exceptions import InvalidParameterError
from repro.experiments.harness import (
    HARNESS_VERSION,
    REQUIRED_SCALES,
    ExperimentSpec,
    SweepCheckpoint,
    run_spec,
)
from repro.experiments.records import SCHEMA_VERSION

from .spec_fixtures import fold, make_spec, point, sweep


class TestSpecValidation:
    def test_required_scales_enforced(self):
        with pytest.raises(InvalidParameterError, match="required scales"):
            ExperimentSpec(
                experiment_id="e98",
                title="t",
                scales={"small": {"a": 1}},
                sweep=sweep,
                point=point,
                fold=fold,
            )

    def test_scale_schemas_must_match(self):
        with pytest.raises(InvalidParameterError, match="parameter keys"):
            ExperimentSpec(
                experiment_id="e98",
                title="t",
                scales={
                    "smoke": {"a": 1},
                    "small": {"a": 1, "b": 2},
                    "paper": {"a": 1},
                },
                sweep=sweep,
                point=point,
                fold=fold,
            )

    def test_bad_experiment_id(self):
        with pytest.raises(InvalidParameterError, match="experiment_id"):
            ExperimentSpec(
                experiment_id="x01",
                title="t",
                scales={name: {"a": 1} for name in REQUIRED_SCALES},
                sweep=sweep,
                point=point,
                fold=fold,
            )

    def test_scale_names_required_first(self):
        spec = make_spec()
        assert spec.scale_names()[:3] == list(REQUIRED_SCALES)

    def test_unknown_scale_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown scale"):
            make_spec().scale_params("galactic")

    def test_plan_normalises_points(self):
        plan = make_spec().plan("smoke")
        assert plan == [{"i": 0}, {"i": 1}]
        assert all(isinstance(p, dict) for p in plan)


class TestSpecHash:
    def test_hash_is_stable(self):
        assert make_spec().spec_hash() == make_spec().spec_hash()

    def test_hash_sees_scale_changes(self):
        assert make_spec(factor=2).spec_hash() != make_spec(factor=3).spec_hash()

    def test_source_is_read_once_per_spec(self, monkeypatch):
        reads = []
        real = inspect.getsource

        def counted(fn):
            reads.append(fn)
            return real(fn)

        spec = make_spec()
        monkeypatch.setattr(inspect, "getsource", counted)
        first = spec.spec_hash()
        assert len(reads) == 3  # sweep, point, fold
        assert spec.spec_hash() == first and len(reads) == 3
        assert make_spec().spec_hash() == first and len(reads) == 6


class TestPointSeeds:
    def test_deterministic_and_distinct(self):
        a = np.random.default_rng(point_seed(7, 0)).random(4)
        b = np.random.default_rng(point_seed(7, 0)).random(4)
        c = np.random.default_rng(point_seed(7, 1)).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_root_seed_matters(self):
        a = np.random.default_rng(point_seed(1, 0)).random(4)
        b = np.random.default_rng(point_seed(2, 0)).random(4)
        assert not np.array_equal(a, b)


class TestMapSweepPoints:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            map_sweep_points(point, [{"i": 0}], {"factor": 1}, 0, [0, 1])

    def test_metrics_counted_once(self):
        before = get_engine().metrics.snapshot().get("sweep_points", 0)
        map_sweep_points(point, [{"i": 0}, {"i": 1}], {"factor": 1}, 0, [0, 1])
        after = get_engine().metrics.snapshot().get("sweep_points", 0)
        assert after - before == 2

    def test_run_sweep_point_payload_matches_map(self):
        payload, _ = run_sweep_point(point, {"i": 1}, {"factor": 3}, 5, 1)
        [mapped] = map_sweep_points(point, [{"i": 1}], {"factor": 3}, 5, [1])
        assert payload == mapped


class TestRunSpec:
    def test_fold_sees_ordered_normalised_payloads(self):
        result = run_spec(make_spec(), scale="small", seed=1)
        assert [row["i"] for row in result.rows] == list(range(6))
        # Tuples in payloads are normalised to lists (JSON round-trip).
        assert result.rows[0]["pair"] == [0, 2]
        assert result.summary["total_scaled"] == sum(2 * i for i in range(6))

    def test_provenance_block(self):
        result = run_spec(make_spec(), scale="smoke", seed=9)
        prov = result.provenance
        assert prov["schema_version"] == SCHEMA_VERSION
        assert prov["harness_version"] == HARNESS_VERSION
        assert prov["experiment_id"] == "e98"
        assert prov["scale"] == "smoke"
        assert prov["seed"] == 9
        assert prov["spec_hash"] == make_spec().spec_hash()
        assert prov["points_total"] == 2
        assert prov["points_computed"] == 2
        assert prov["points_restored"] == 0
        assert prov["engine"]["backend"] == "serial"
        assert prov["engine"]["workers"] == 1

    def test_backend_invariance(self):
        serial = run_spec(make_spec(), scale="small", seed=4)
        backend = ProcessPoolBackend(max_workers=2)
        try:
            with engine_context(backend=backend):
                parallel = run_spec(make_spec(), scale="small", seed=4)
        finally:
            backend.close()
        assert serial.rows == parallel.rows
        assert serial.summary == parallel.summary


class TestSweepCheckpoint:
    def _checkpoint(self, tmp_path, total=3):
        return SweepCheckpoint(
            str(tmp_path), "e98", "small", 0, "hash", total_points=total
        )

    def test_fresh_run_writes_manifest(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        assert checkpoint.begin(resume=False) == {}
        with open(os.path.join(checkpoint.run_dir, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["spec_hash"] == "hash"
        assert manifest["total_points"] == 3

    def test_record_and_restore(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin(resume=False)
        checkpoint.record(0, {"i": 0})
        checkpoint.record(2, {"i": 2})
        restored = self._checkpoint(tmp_path).begin(resume=True)
        assert restored == {0: {"i": 0}, 2: {"i": 2}}

    def test_mismatched_manifest_wipes(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin(resume=False)
        checkpoint.record(0, {"i": 0})
        other = SweepCheckpoint(
            str(tmp_path), "e98", "small", 0, "different-hash", total_points=3
        )
        assert other.begin(resume=True) == {}
        assert not os.path.exists(checkpoint._point_path(0))

    def test_corrupt_point_recomputed(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin(resume=False)
        checkpoint.record(0, {"i": 0})
        with open(checkpoint._point_path(1), "w") as handle:
            handle.write("{truncated")
        restored = self._checkpoint(tmp_path).begin(resume=True)
        assert restored == {0: {"i": 0}}

    def test_unserialisable_point_leaves_no_temp_file(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin(resume=False)
        with pytest.raises(TypeError):
            checkpoint.record(0, {"i": object()})
        assert sorted(os.listdir(checkpoint.run_dir)) == ["manifest.json"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin(resume=False)

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            checkpoint.record(0, {"i": 0})
        assert sorted(os.listdir(checkpoint.run_dir)) == ["manifest.json"]

    def test_checkpoint_bytes_are_indented_json(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin(resume=False)
        payload = {"i": 1, "rows": [[0.5, None]]}
        checkpoint.record(1, payload)
        with open(checkpoint._point_path(1), "rb") as handle:
            stored = handle.read()
        assert stored == json.dumps(payload, indent=2).encode("utf-8")

    def test_run_spec_restores_from_disk(self, tmp_path):
        spec = make_spec()
        first = run_spec(spec, scale="small", seed=2, checkpoint_dir=str(tmp_path))
        assert first.provenance["points_computed"] == 6
        second = run_spec(
            spec, scale="small", seed=2, checkpoint_dir=str(tmp_path), resume=True
        )
        assert second.provenance["points_restored"] == 6
        assert second.provenance["points_computed"] == 0
        assert second.rows == first.rows
        assert second.summary == first.summary
