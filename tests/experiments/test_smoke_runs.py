"""Every experiment runs end to end at its smoke scale.

The exact experiments (e05, e06, e10, e11) are checked at small scale in
test_registry.py; the Monte Carlo ones are otherwise only planned, never
run, by the tier-1 suite.  One smoke run per experiment exercises its
point and fold steps and checks what holds at any scale: the harness
bookkeeping, a stable JSON document, and the verdicts that follow from a
theorem or from the construction rather than from a large sweep.
"""

from __future__ import annotations

import functools

import pytest

from repro.experiments import ExperimentResult, experiment_ids, run_experiment
from repro.experiments.records import SCHEMA_VERSION
from repro.experiments.registry import SPECS

SEED = 0

#: Summary verdicts that hold on every seed and scale: the measured q* (or
#: k*, τ*) dominates a proven lower bound, an enumerated check finds no
#: violation, or the protocol's construction forces the value.
VERDICTS = {
    "e01": {"lower_bound_dominated": True},
    "e02": {
        "and_lower_bound_dominated": True,
        "q1_and_rule_impossible (remark; expect True)": True,
        "q1_jensen_violations (expect 0)": 0,
    },
    "e04": {"lower_bound_dominated": True},
    "e07": {"lower_bound_dominated": True},
    "e08": {"lower_bound_dominated": True},
    "e09": {"lower_bound_dominated": True},
    "e12": {
        "fact_6_2_additivity_failures (paper: 0)": 0,
        "fact_6_3_failures (paper: 0)": 0,
        "inequality_12_failures (paper: 0)": 0,
        "eq_13_dominated": True,
    },
    "e13": {"all_targets_complete": True, "all_targets_sound": True},
    "e16": {"lower_bound_dominated": True},
    "e17": {
        "referee_equivalence_failures (expect 0)": 0,
        "message_width_within_log_k": True,
        "all_verdicts_delivered": True,
    },
    "e18": {"all_cases_correct": True},
    "e19": {
        "and_completeness_after_1_stuck_alarm (theory: 0)": 0.0,
        "and_killed_by_single_fault": True,
    },
}


@functools.lru_cache(maxsize=None)
def _smoke_result(experiment_id: str) -> ExperimentResult:
    return run_experiment(experiment_id, scale="smoke", seed=SEED)


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_smoke_run_bookkeeping(experiment_id):
    result = _smoke_result(experiment_id)
    spec = SPECS[experiment_id]
    assert result.experiment_id == experiment_id
    assert result.title == spec.title
    assert result.rows
    assert all(list(row) == list(result.rows[0]) for row in result.rows)
    assert result.summary
    provenance = result.provenance
    assert provenance["schema_version"] == SCHEMA_VERSION
    assert provenance["scale"] == "smoke"
    assert provenance["seed"] == SEED
    assert provenance["spec_hash"] == spec.spec_hash()
    assert provenance["points_total"] == len(spec.plan("smoke"))
    assert provenance["points_computed"] == provenance["points_total"]
    assert provenance["points_restored"] == 0
    document = result.to_json()
    assert ExperimentResult.from_json(document).to_json() == document
    assert result.render().startswith(f"== {experiment_id.upper()}: {spec.title} ==")


@pytest.mark.parametrize("experiment_id", sorted(VERDICTS))
def test_smoke_run_verdicts(experiment_id):
    summary = _smoke_result(experiment_id).summary
    expected = VERDICTS[experiment_id]
    assert {key: summary.get(key) for key in expected} == expected
