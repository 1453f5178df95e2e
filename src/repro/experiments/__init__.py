"""The experiment registry: one experiment per theorem-level claim.

The paper (a lower-bound paper) has no tables or figures; DESIGN.md §3
defines experiments E1–E18, one per theorem/lemma, each regenerating the
claim's empirical counterpart.  Every experiment module declares one
:class:`~repro.experiments.harness.ExperimentSpec` — named scales
(``smoke``/``small``/``paper``), a sweep planner, a per-point task and a
fold step — and the harness executes it through the parallel engine with
checkpoint/resume support and a provenance stamp on every result.

This package's public names are imported on first access, so importing a leaf such
as :mod:`repro.experiments.timing` loads neither the harness nor numpy.

>>> from repro.experiments import run_experiment
>>> result = run_experiment("e05", scale="small")   # doctest: +SKIP
>>> print(result.render())                          # doctest: +SKIP
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "records": ("ExperimentResult",),
        "harness": ("ExperimentSpec", "SweepCheckpoint", "run_spec"),
        "registry": ("SPECS", "experiment_ids", "get_spec", "run_experiment"),
    },
)
