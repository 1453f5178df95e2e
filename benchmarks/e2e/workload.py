"""One benchmark workload in one fresh interpreter.

Sequence: timed set-up (from the first line below, before ``import
repro``, until the workload is ready), one untimed serial warm-up pass,
timed untraced passes for ``--seconds`` (at least :data:`MIN_PASSES`),
then (with ``--trace 1``) one traced pass and one more untraced pass to
compare it with.  A pass is one closed-loop run of the experiment grid
through ``repro.experiments.run_experiment``.  A pass that raises ends the
run; its points count as failed.  The last stdout line is a JSON record
that ``run.py`` turns into the benchmark result.

``ns_per_ref_sample`` divides each timed pass's wall time by the pass's
reference work (see :mod:`work`): the samples the reference
implementation draws to find the pass's q* values — all of them; only the
calibrations' for a replay on a warm cache; on a pool, the most any
worker gets when the points are dealt out in order — and scales it to the
reference machine speed (see :func:`machine_probe`).  The traced pass of
a serial cold workload also gives the samples each search draws per unit
of probed q (``measured_samples_per_q``, the figures ``references.json``
keeps).

Run it through ``run.py``; directly::

    PYTHONPATH=src python benchmarks/e2e/workload.py --workload e01-cold --work-dir .e2e_bench
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import work  # noqa: E402
from catalog import SHM_WORKERS, WORKLOADS, load_benchmark  # noqa: E402
from tracing import Tracer, list_schedule_makespan  # noqa: E402

#: Timed passes a run makes at least, by experiment scale.
MIN_PASSES = {"small": 3, "smoke": 1}

#: Layers whose spans only contain other layers' work; ``trace.coverage``
#: leaves their self time out.
CONTAINER_LAYERS = ("harness", "sweep", "point")


@dataclass
class Pass:
    kind: str
    wall_s: float
    rows: Optional[List[Dict[str, Any]]]
    metrics: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None


def run_pass(kind: str, experiment: str, scale: str, seed: int, backend: Any, cache: Any) -> Pass:
    from repro.engine import engine_context
    from repro.experiments import run_experiment

    with engine_context(backend=backend, cache=cache):
        start = time.perf_counter()
        try:
            result = run_experiment(experiment, scale=scale, seed=seed)
        except Exception:  # a failed pass is a result, not a crash
            return Pass(kind, time.perf_counter() - start, None, error=traceback.format_exc())
        wall = time.perf_counter() - start
    return Pass(kind, wall, result.rows, dict(result.metrics))


#: Seconds ``machine_probe`` takes on the quiet reference machine (2 vCPUs,
#: Python 3.11, NumPy 2.4); pass times are scaled to that speed.
REFERENCE_PROBE_S = 0.175


def machine_probe() -> float:
    """Seconds for a fixed NumPy load that shares no code with the library.

    On a shared virtual machine, neighbours slow the same pass by 10-40%
    over minutes.  The probe (inverse-CDF draws, a row sort and a
    collision count, the operations that dominate a pass) slows with
    them, so a pass time divided by the probes around it cancels most of
    the drift.
    """
    generator = np.random.default_rng(0)
    cdf = np.cumsum(np.full(1024, 1.0 / 1024))
    cdf[-1] = 1.0
    start = time.perf_counter()
    for _ in range(2):
        draws = np.searchsorted(cdf, generator.random(1_000_000), side="right")
        rows = np.sort(draws.reshape(1000, 1000), axis=1)
        int((rows[:, 1:] == rows[:, :-1]).sum())
    return time.perf_counter() - start


def speed_factors(probes: List[float]) -> List[float]:
    """Per pass, the reference probe time over the mean of the two probes
    that bracket the pass (probe, pass, probe, pass, ..., probe)."""
    return [REFERENCE_PROBE_S / ((a + b) / 2) for a, b in zip(probes, probes[1:])]


def quartiles(values: List[float]) -> Optional[Dict[str, float]]:
    if not values:
        return None
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def samples_by_search(tracer: Tracer) -> Dict[str, List[float]]:
    """Samples drawn inside each search span, in start order: ``all`` of
    them and those drawn by ``calibration``."""
    index = {
        position: number
        for number, position in enumerate(
            position for position, span in enumerate(tracer.spans) if span.layer == "search"
        )
    }
    totals = {"all": [0.0] * len(index), "calibration": [0.0] * len(index)}
    for span in tracer.spans:
        search = tracer.enclosing(span, "search") if span.layer == "sampling" else None
        if search is None:
            continue
        samples = span.counts.get("samples", 0)
        totals["all"][index[search]] += samples
        if tracer.enclosing(span, "calibrate") is not None:
            totals["calibration"][index[search]] += samples
    return totals


def per_layer_metrics(
    tracer: Tracer,
    ladder: List[int],
    traced: Pass,
    overhead: float,
    warmup_point_s: List[float],
    reference_samples: Optional[float],
) -> Dict[str, float]:
    totals = tracer.layer_totals()

    def get(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0)

    out: Dict[str, float] = {}
    for layer in ("sampling", "calibrate", "estimate", "dispatch", "kernel",
                  "statistic", "referee", "streaming", "search"):
        out[f"{layer}.calls"] = get(layer, "calls")
        out[f"{layer}.self_s"] = get(layer, "self_s")
    for layer in ("calibrate", "estimate", "dispatch"):
        out[f"{layer}.total_s"] = get(layer, "total_s")
    samples = get("sampling", "samples")
    out["sampling.samples"] = samples
    out["sampling.ns_per_sample"] = 1e9 * get("sampling", "self_s") / samples if samples else 0.0
    # Samples drawn over the reference work of the pass (see work.py).
    out["sampling.work_ratio"] = samples / reference_samples if reference_samples else 0.0
    out["calibrate.trials"] = get("calibrate", "trials")
    out["estimate.trials"] = get("estimate", "trials")
    saved = get("estimate", "sprt_trials_saved")
    sprt_trials = get("estimate", "sprt_trials")
    out["estimate.sprt_early_stops"] = get("estimate", "sprt_early_stops")
    out["estimate.sprt_trials_saved"] = saved
    out["estimate.sprt_saved_ratio"] = saved / (saved + sprt_trials) if saved + sprt_trials else 0.0
    out["dispatch.tiles"] = get("dispatch", "tiles")
    out["dispatch.rng_blocks"] = get("dispatch", "rng_blocks")
    out["statistic.rows"] = get("statistic", "rows")
    hits, misses = get("cache", "hits"), get("cache", "misses")
    out["cache.hits"] = hits
    out["cache.misses"] = misses
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cache.key_s"] = sum(tracer.durations("kernel_probe_key"))
    out["cache.get_s"] = sum(tracer.durations("AcceptanceCache.get_estimate"))
    out["cache.put_s"] = sum(tracer.durations("AcceptanceCache.put_estimate"))
    # Points run in pool workers are invisible to the parent-side tracer;
    # the serial warm-up pass timed the same points.
    point_s = tracer.durations("run_sweep_point") or warmup_point_s
    out["sweep.points"] = get("sweep", "points")
    out["sweep.point_s_max"] = max(point_s, default=0.0)
    out["sweep.point_s_sum"] = sum(point_s)
    out["sweep.schedule_bound_s"] = list_schedule_makespan(point_s, SHM_WORKERS)
    out["sweep.wait_s"] = sum(
        span.duration for span in tracer.spans if span.name.endswith(".map_tasks")
    )
    out["search.levels"] = len(ladder)
    out["search.probed_q"] = sum(ladder)
    out["harness.self_s"] = get("harness", "self_s")
    for name in ("protocol_trials", "samples_drawn", "tiles_executed", "rng_blocks"):
        out[f"engine.{name}"] = traced.metrics.get(name, 0)
    covered = sum(
        entry["self_s"] for layer, entry in totals.items() if layer not in CONTAINER_LAYERS
    )
    out["trace.coverage"] = covered / traced.wall_s
    out["trace.overhead"] = overhead
    return {m["name"]: out[m["name"]] for m in load_benchmark()["per_layer"]}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(MIN_PASSES), default="small")
    parser.add_argument("--work-dir", required=True, help="scratch dir for caches")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    workload = WORKLOADS[args.workload]

    from repro.engine import AcceptanceCache, SerialBackend, make_backend
    from repro.experiments import get_spec

    os.makedirs(args.work_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=args.work_dir)
    pool = None
    try:
        if workload.backend == "shm":
            pool = make_backend(SHM_WORKERS, kind="shm", fresh=True)
            pool.warmup()
            pool.dispatch_overhead_s()
        shared_cache = (
            AcceptanceCache(os.path.join(work_dir, "shared"))
            if workload.cache == "shared"
            else None
        )
        raw_setup_s = time.perf_counter() - START
        setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = raw_setup_s * REFERENCE_PROBE_S / machine_probe()
        setup = {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "setup_rss_mb": setup_rss_mb}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        params = get_spec(workload.experiment).scale_params(args.scale)
        serial = SerialBackend()
        timed_backend = pool if pool is not None else serial
        # The warm-up must run the full grid when later passes depend on
        # it: e01-warm replays the cache it fills, and e01-shm2 checks its
        # pool rows against serial rows and takes the point times and the
        # search ladder its workers hide from it.  Otherwise the smoke grid
        # runs every code path once at a fraction of the cost, and the
        # first timed pass gives the rows the others must repeat.
        full_warmup = workload.cache == "shared" or pool is not None
        warmup_scale = args.scale if full_warmup else "smoke"
        pass_count = 0

        def cache_for_pass() -> Any:
            nonlocal pass_count
            pass_count += 1
            if workload.cache == "per-pass":
                return AcceptanceCache(os.path.join(work_dir, f"pass-{pass_count}"))
            return shared_cache

        def run(kind: str, backend: Any, scale: str = args.scale) -> Pass:
            return run_pass(kind, workload.experiment, scale, args.seed, backend, cache_for_pass())

        with Tracer() as counter:
            warmup_ladder = layers.install(counter, ("sweep", "search"))
            warmup = run("warmup", serial, warmup_scale)
        warmup_point_s = counter.durations("run_sweep_point")

        timed: List[Pass] = []
        extra: List[Pass] = []
        probes: List[float] = []
        if warmup.rows is not None:
            probes.append(machine_probe())
            measure_start = time.perf_counter()
            while True:
                timed.append(run("timed", timed_backend))
                probes.append(machine_probe())
                elapsed = time.perf_counter() - measure_start
                if timed[-1].rows is None or (
                    len(timed) >= MIN_PASSES[args.scale]
                    and elapsed + timed[-1].wall_s > args.seconds
                ):
                    break
        if args.trace and timed and timed[-1].rows is not None:
            # Installed after the pool forked: worker-side calls stay untraced.
            with Tracer() as tracer:
                ladder = layers.install(tracer)
                traced = run("traced", timed_backend)
            probes.append(machine_probe())
            after = run("untraced", timed_backend)
            probes.append(machine_probe())
            extra = [traced, after]
    finally:
        if pool is not None:
            pool.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    references = checks.load_references()
    rows = warmup.rows if full_warmup else (timed[0].rows if timed else None)
    failures = []
    attempted = failed = 0
    for index, (run_, scale, reference_rows) in enumerate(
        [(warmup, warmup_scale, None)] + [(p, args.scale, rows) for p in timed + extra]
    ):
        points = len(get_spec(workload.experiment).plan(scale))
        bad = checks.failed_points(
            workload.experiment, run_.rows, points,
            checks.reference_q_stars(workload.experiment, scale, references), reference_rows,
        )
        attempted += points
        failed += len(bad)
        if bad:
            failures.append({"pass": index, "kind": run_.kind, "points": bad, "error": run_.error})

    walls = [p.wall_s for p in timed]
    per_sample: List[float] = []
    reference_per_pass = None
    if rows is not None and not failed:
        weights = references["samples_per_q"][workload.experiment][args.scale]
        part = "calibration" if workload.cache == "shared" else "all"
        by_point = work.reference_samples(workload.experiment, rows, params, weights[part])
        reference_per_pass = (
            list_schedule_makespan(by_point, SHM_WORKERS) if pool is not None else sum(by_point)
        )
        per_sample = [1e9 * wall / reference_per_pass for wall in walls]
    ref_per_sample = [value * factor for value, factor in zip(per_sample, speed_factors(probes))]

    per_layer = None
    measured_per_q: Dict[str, List[float]] = {}
    if extra:
        # The machine drifts by more than the tracer costs, so the traced
        # pass is compared, at reference speed, with the untraced passes
        # on either side of it.
        before_s, traced_s, after_s = (
            run_.wall_s * factor
            for run_, factor in zip((timed[-1], *extra), speed_factors(probes)[-3:])
        )
        # Pool workers run the searches out of the tracer's sight; the
        # serial warm-up pass probed the same ladder.
        per_layer = per_layer_metrics(
            tracer, ladder or warmup_ladder, extra[0],
            traced_s / ((before_s + after_s) / 2) - 1.0, warmup_point_s, reference_per_pass,
        )
        if rows is not None and pool is None and workload.cache != "shared":
            sums = [total for point in work.ladder_sums(workload.experiment, rows, params)
                    for total in point]
            measured_per_q = {
                key: [samples / total for samples, total in zip(values, sums)]
                for key, values in samples_by_search(tracer).items()
            }

    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    notes: Dict[str, Any] = {}
    if workload.experiment == "e21" and rows is not None:
        notes["censoring_not_suffix_rows"] = checks.censoring_not_suffix(rows, params["budgets"])
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        **setup,
        "reference_samples_per_pass": reference_per_pass,
        "measured_samples_per_q": measured_per_q,
        "warmup_wall_s": warmup.wall_s,
        "pass_walls_s": walls,
        "probe_s": probes,
        "pass_ns_per_ref_sample": ref_per_sample,
        "wall_s": quartiles(walls),
        "raw_ns_per_ref_sample": quartiles(per_sample),
        "ns_per_ref_sample": quartiles(ref_per_sample),
        "peak_rss_mb": rss_kib / 1024.0,
        "traced_wall_s": extra[0].wall_s if extra else None,
        "after_traced_wall_s": extra[1].wall_s if extra else None,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "rows": rows,
        "notes": notes,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
