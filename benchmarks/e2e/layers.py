"""The library's layers and the public calls the traced pass wraps.

=========  ===============================================================
layer      wrapped calls
=========  ===============================================================
harness    ``run_experiment``, ``run_spec``
sweep      ``map_tasks`` when it maps sweep points; ``run_sweep_point``
           (spans of their own layer, ``point``)
search     ``empirical_sample_complexity``
calibrate  the five ``calibrate_*`` / ``statistic_alarm_probabilities``
estimate   ``estimate_acceptance``
dispatch   ``map_accept_tiles`` on every backend class defining it
kernel     ``accept_block`` on every class under ``repro`` defining it
sampling   ``DiscreteDistribution.sample`` / ``sample_matrix``
statistic  ``graph_statistic_block``, ``collision_counts``, ``unique_counts``
referee    ``decide_batch`` on every ``DecisionRule`` subclass
streaming  ``update`` / ``finalize`` on every ``StreamingTester`` subclass
cache      ``kernel_probe_key``, ``AcceptanceCache.get_estimate`` /
           ``put_estimate``
=========  ===============================================================
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Iterable, List, Optional

from tracing import Tracer, argument, classes_defining

LAYERS = (
    "harness",
    "sweep",
    "search",
    "calibrate",
    "estimate",
    "dispatch",
    "kernel",
    "sampling",
    "statistic",
    "referee",
    "streaming",
    "cache",
)


def _rows(samples: Any) -> int:
    shape = getattr(samples, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _estimate_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    if result.from_cache:
        return {"trials": 0}
    counts: Dict[str, float] = {"trials": result.trials_used}
    sprt = kwargs.get("sprt")
    if sprt is not None:
        counts["sprt_trials"] = result.trials_used
        if result.stopped_early:
            counts["sprt_early_stops"] = 1
            counts["sprt_trials_saved"] = sprt.max_trials - result.trials_used
    return counts


def install(tracer: Tracer, layers: Optional[Iterable[str]] = None) -> List[int]:
    """Patch every public entry point of ``layers`` (default: all).

    Returns the search ladder: every sample size q the q* searches probe,
    in probe order (filled only when the ``search`` layer is installed).
    """
    from repro.core import graphs, players, streaming
    from repro.core.referees import DecisionRule
    from repro.distributions.discrete import DiscreteDistribution
    from repro.engine import backend, cache, estimate, sweep
    from repro.experiments import harness, registry
    from repro.stats import complexity

    wanted = set(LAYERS if layers is None else layers)
    unknown = wanted - set(LAYERS)
    if unknown:
        raise ValueError(f"unknown layers: {sorted(unknown)}")
    ladder: List[int] = []

    if "harness" in wanted:
        tracer.patch_function(registry.run_experiment, "harness")
        tracer.patch_function(harness.run_spec, "harness")

    if "sweep" in wanted:
        # Serial backends run the points inside map_tasks, so the point
        # spans get a layer of their own instead of merging into it.
        tracer.patch_function(sweep.run_sweep_point, "point")

        def maps_sweep_points(args: tuple, kwargs: dict) -> bool:
            fn = args[1] if len(args) > 1 else kwargs.get("fn")
            return getattr(fn, "__name__", "") == "run_sweep_point"

        for cls in classes_defining("map_tasks", backend.ExecutionBackend):
            tasks = argument(cls.__dict__["map_tasks"], "tasks")
            tracer.patch_method(
                cls,
                "map_tasks",
                "sweep",
                count=lambda a, k, r, tasks=tasks: {"points": len(tasks(a, k))},
                when=maps_sweep_points,
            )

    if "search" in wanted:
        original = complexity.empirical_sample_complexity

        # The search builds one tester per probed level, so wrapping its
        # factory argument records the ladder, censored searches included.
        @functools.wraps(original)
        def search(tester_factory: Any, *args: Any, **kwargs: Any) -> Any:
            def probe(q: int) -> Any:
                ladder.append(q)
                return tester_factory(q)

            return tracer.call(
                "search", "empirical_sample_complexity", original, (probe, *args), kwargs
            )

        tracer.rebind(original, search)

    if "calibrate" in wanted:
        for fn in (
            graphs.statistic_alarm_probabilities,
            graphs.calibrate_statistic_threshold,
            graphs.calibrate_dithered_statistic,
            graphs.calibrate_distinct_threshold,
            streaming.calibrate_sketch_threshold,
        ):
            trials = argument(fn, "trials")
            tracer.patch_function(
                fn,
                "calibrate",
                count=lambda a, k, r, trials=trials: {"trials": trials(a, k)},
            )

    if "estimate" in wanted:
        tracer.patch_function(
            estimate.estimate_acceptance, "estimate", count=_estimate_counts
        )

    if "dispatch" in wanted:
        for cls in classes_defining("map_accept_tiles", backend.ExecutionBackend):
            tiles = argument(cls.__dict__["map_accept_tiles"], "tiles")
            tracer.patch_method(
                cls,
                "map_accept_tiles",
                "dispatch",
                count=lambda a, k, r, tiles=tiles: {
                    "tiles": len(tiles(a, k)),
                    "rng_blocks": sum(len(tile) for tile in tiles(a, k)),
                },
            )

    if "kernel" in wanted:
        for cls in classes_defining("accept_block"):
            tracer.patch_method(cls, "accept_block", "kernel")

    if "sampling" in wanted:
        for cls in classes_defining("sample", DiscreteDistribution):
            size = argument(cls.__dict__["sample"], "size")
            tracer.patch_method(
                cls,
                "sample",
                "sampling",
                count=lambda a, k, r, size=size: {"samples": int(size(a, k))},
            )
        for cls in classes_defining("sample_matrix", DiscreteDistribution):
            method = cls.__dict__["sample_matrix"]
            rows, cols = argument(method, "rows"), argument(method, "cols")
            tracer.patch_method(
                cls,
                "sample_matrix",
                "sampling",
                count=lambda a, k, r, rows=rows, cols=cols: {
                    "samples": int(rows(a, k)) * int(cols(a, k))
                },
            )

    if "statistic" in wanted:
        for fn in (
            graphs.graph_statistic_block,
            players.collision_counts,
            players.unique_counts,
        ):
            samples = argument(fn, "samples")
            tracer.patch_function(
                fn,
                "statistic",
                count=lambda a, k, r, samples=samples: {"rows": _rows(samples(a, k))},
            )

    if "referee" in wanted:
        for cls in classes_defining("decide_batch", DecisionRule):
            tracer.patch_method(cls, "decide_batch", "referee")

    if "streaming" in wanted:
        for method in ("update", "finalize"):
            for cls in classes_defining(method, streaming.StreamingTester):
                tracer.patch_method(cls, method, "streaming")

    if "cache" in wanted:
        tracer.patch_function(cache.kernel_probe_key, "cache")
        tracer.patch_method(
            cache.AcceptanceCache,
            "get_estimate",
            "cache",
            count=lambda a, k, r: {"hits": int(r is not None), "misses": int(r is None)},
        )
        tracer.patch_method(cache.AcceptanceCache, "put_estimate", "cache")
    return ladder
