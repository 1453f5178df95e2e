"""Command-line interface: ``python -m repro <command> ...``.

Six commands cover the common workflows:

* ``test`` — run one uniformity tester against a chosen input distribution
  and report acceptance statistics::

      python -m repro test --tester threshold --n 1024 --k 16 --eps 0.5 \\
          --input two_level --trials 400

* ``complexity`` — empirically search the per-player sample complexity
  q* of a tester at given (n, k, ε)::

      python -m repro complexity --tester threshold --n 1024 --k 16 --eps 0.5

* ``experiment`` — run a registered experiment (E1–E19) and print its
  regenerated table; sweeps go through the parallel engine and can be
  checkpointed and resumed::

      python -m repro experiment e05 --scale small
      python -m repro experiment e02 --workers 4 --checkpoint-dir .ckpt
      python -m repro experiment e02 --resume --checkpoint-dir .ckpt

* ``run-all`` — run every registered experiment (or ``--only`` a
  subset) at one scale, points dispatched through the engine::

      python -m repro run-all --scale smoke
      python -m repro run-all --scale small --workers 4 --resume

* ``battery`` — run every registered streaming plugin over one shared
  sample stream and report per-plugin verdict rates, trial counts and
  peak state bytes (non-zero exit if any plugin breaks its declared
  memory bound or diverges from its batch oracle)::

      python -m repro battery --scale smoke
      python -m repro battery --n 256 --eps 0.5 --input two_level

* ``bounds`` — print every theorem lower bound at given parameters::

      python -m repro bounds --n 4096 --k 16 --eps 0.5

The project's static-analysis pass has its own entry point,
``python -m repro.lint`` (see ``docs/static-analysis.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.testers import (
    AndRuleTester,
    CentralizedCollisionTester,
    ThresholdRuleTester,
    UniformityTester,
)
from .distributions.discrete import DiscreteDistribution, uniform
from .distributions.generators import (
    bimodal_distribution,
    two_level_distribution,
    zipf_distribution,
)
from .distributions.families import PaninskiFamily
from .exceptions import ReproError
from .lowerbounds import theorems
from .stats.complexity import empirical_sample_complexity

TESTER_CHOICES = ("centralized", "threshold", "and")
INPUT_CHOICES = ("uniform", "two_level", "paninski", "zipf", "heavy_hitter")

#: Where ``--resume`` looks for sweep checkpoints when no directory is given.
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"

#: Preset problem sizes for ``battery --scale`` (overridable per flag).
BATTERY_SCALES = {
    "smoke": {"n": 64, "trials": 200},
    "small": {"n": 256, "trials": 1000},
    "paper": {"n": 1024, "trials": 4000},
}


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Monte Carlo engine flags shared by the execution commands."""
    group = parser.add_argument_group("engine")
    group.add_argument(
        "--workers",
        type=int,
        default=0,
        help="parallel worker processes (0/1 = serial)",
    )
    group.add_argument(
        "--chunk-elements",
        type=int,
        default=None,
        help="max sample-tensor elements per execution tile",
    )
    group.add_argument(
        "--backend",
        choices=("serial", "process", "shm"),
        default=None,
        help=(
            "execution backend (default: serial when --workers <= 1, "
            "shared-memory fork pool otherwise)"
        ),
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk acceptance-curve and calibration cache",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the acceptance-curve and calibration cache even if --cache-dir is set",
    )


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """Scale/seed/checkpoint flags shared by the experiment commands."""
    parser.add_argument(
        "--scale",
        default="small",
        help="named scale from the spec (smoke, small, paper, ...)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist completed sweep points under this directory",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "restore completed points from the checkpoint directory "
            f"(default: {DEFAULT_CHECKPOINT_DIR}) instead of recomputing"
        ),
    )
    parser.add_argument(
        "--list-scales",
        action="store_true",
        help="list the available scales (with sweep sizes) and exit",
    )


def _apply_engine_options(args: argparse.Namespace):
    """Install the engine configuration requested by the CLI flags."""
    from .engine import configure_engine

    cache_dir = None if getattr(args, "no_cache", False) else getattr(args, "cache_dir", None)
    return configure_engine(
        workers=getattr(args, "workers", 0),
        max_elements=getattr(args, "chunk_elements", None),
        cache_dir=cache_dir,
        backend=getattr(args, "backend", None),
    )


def _build_tester(name: str, n: int, epsilon: float, k: int, q: Optional[int]) -> UniformityTester:
    if name == "centralized":
        return CentralizedCollisionTester(n, epsilon, q=q)
    if name == "threshold":
        return ThresholdRuleTester(n, epsilon, k, q=q)
    if name == "and":
        return AndRuleTester(n, epsilon, k, q=q)
    raise ReproError(f"unknown tester {name!r}")


def _build_input(name: str, n: int, epsilon: float, seed: int) -> DiscreteDistribution:
    if name == "uniform":
        return uniform(n)
    if name == "two_level":
        return two_level_distribution(n if n % 2 == 0 else n - 1, epsilon)
    if name == "paninski":
        return PaninskiFamily(n if n % 2 == 0 else n - 1, epsilon).sample_distribution(seed)
    if name == "zipf":
        return zipf_distribution(n, 1.0)
    if name == "heavy_hitter":
        return bimodal_distribution(n, epsilon, heavy_elements=1)
    raise ReproError(f"unknown input {name!r}")


def _cmd_test(args: argparse.Namespace) -> int:
    config = _apply_engine_options(args)
    tester = _build_tester(args.tester, args.n, args.eps, args.k, args.q)
    distribution = _build_input(args.input, args.n, args.eps, args.seed)
    resources = tester.resources
    print(f"tester:  {type(tester).__name__}")
    print(
        f"budget:  k={resources.num_players} players × "
        f"q={resources.samples_per_player} samples"
    )
    rate = tester.acceptance_probability(distribution, args.trials, args.seed)
    print(f"input:   {args.input} (n={args.n}, eps={args.eps})")
    print(f"engine:  backend={config.backend.name} {config.metrics.summary_line()}")
    print(f"P[accept] over {args.trials} runs: {rate:.3f}")
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    config = _apply_engine_options(args)
    result = empirical_sample_complexity(
        lambda q: _build_tester(args.tester, args.n, args.eps, args.k, q),
        n=args.n,
        epsilon=args.eps,
        trials=args.trials,
        rng=args.seed,
        sprt=args.sprt,
        sprt_margin=args.sprt_margin,
        sprt_error_rate=args.sprt_error_rate,
        sprt_max_trials=args.sprt_max_trials,
    )
    mode = "sprt" if args.sprt else "fixed"
    print(
        f"tester: {args.tester}  n={args.n}  k={args.k}  eps={args.eps}  "
        f"mode={mode}"
    )
    print(f"empirical q* = {result.resource_star}")
    bound = theorems.theorem_1_1_q_lower(args.n, args.k, args.eps)
    print(f"Theorem 1.1 lower bound: {bound:.2f}")
    from .stats.ascii import success_curve_plot

    levels = sorted(result.curve)
    print(success_curve_plot(levels, [result.curve[q] for q in levels]))
    print(f"engine: backend={config.backend.name} {config.metrics.summary_line()}")
    return 0


def _resolved_checkpoint_dir(args: argparse.Namespace) -> Optional[str]:
    """The checkpoint directory implied by --checkpoint-dir/--resume."""
    if args.checkpoint_dir is not None:
        return args.checkpoint_dir
    if args.resume:
        return DEFAULT_CHECKPOINT_DIR
    return None


def _print_scales(experiment_ids_to_list: List[str]) -> None:
    from .experiments import get_spec

    for experiment_id in experiment_ids_to_list:
        spec = get_spec(experiment_id)
        scales = ", ".join(
            f"{name} ({len(spec.plan(name))} points)" for name in spec.scale_names()
        )
        print(f"{spec.experiment_id}: {scales}")


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import run_experiment

    if args.list_scales:
        _print_scales([args.experiment_id])
        return 0
    _apply_engine_options(args)
    result = run_experiment(
        args.experiment_id,
        scale=args.scale,
        seed=args.seed,
        checkpoint_dir=_resolved_checkpoint_dir(args),
        resume=args.resume,
    )
    print(result.render())
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from .experiments import experiment_ids, run_experiment

    selected = [eid.lower() for eid in args.only] if args.only else experiment_ids()
    if args.list_scales:
        _print_scales(selected)
        return 0
    _apply_engine_options(args)
    checkpoint_dir = _resolved_checkpoint_dir(args)
    for experiment_id in selected:
        result = run_experiment(
            experiment_id,
            scale=args.scale,
            seed=args.seed,
            checkpoint_dir=checkpoint_dir,
            resume=args.resume,
        )
        print(result.render())
        print()
    print(f"ran {len(selected)} experiments at scale {args.scale!r}")
    return 0


def _cmd_battery(args: argparse.Namespace) -> int:
    from .core.battery import run_battery, render_battery

    preset = BATTERY_SCALES[args.scale]
    n = args.n if args.n is not None else preset["n"]
    trials = args.trials if args.trials is not None else preset["trials"]
    distribution = _build_input(args.input, n, args.eps, args.seed)
    rows = run_battery(
        n,
        args.eps,
        trials,
        rng=args.seed,
        distribution=distribution,
        chunk=args.chunk,
        only=args.only,
    )
    print(
        f"battery: scale={args.scale} n={n} eps={args.eps} trials={trials} "
        f"input={args.input} chunk={args.chunk}"
    )
    print(render_battery(rows))
    healthy = all(row.within_bound and row.matches_batch_oracle for row in rows)
    if not healthy:
        print("battery: FAILED (memory bound or batch-oracle mismatch)", file=sys.stderr)
    return 0 if healthy else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, k, eps = args.n, args.k, args.eps
    print(f"paper lower bounds at n={n}, k={k}, eps={eps}:")
    print(f"  centralized (k=1):      q >= {theorems.centralized_q_lower(n, eps):.2f}")
    print(f"  Theorem 1.1 (any rule): q >= {theorems.theorem_1_1_q_lower(n, k, eps):.2f}")
    try:
        print(f"  Theorem 1.2 (AND rule): q >= {theorems.theorem_1_2_q_lower(n, k, eps):.2f}")
    except ReproError as error:
        print(f"  Theorem 1.2 (AND rule): outside regime ({error})")
    for t in (1, 2, 4):
        try:
            bound = theorems.theorem_1_3_q_lower(n, k, eps, t)
            print(f"  Theorem 1.3 (T={t}):     q >= {bound:.2f}")
        except ReproError:
            print(f"  Theorem 1.3 (T={t}):     outside regime")
    for q in (1, 4, 16):
        print(
            f"  Theorem 1.4 (learning, q={q}): k >= "
            f"{theorems.theorem_1_4_k_lower(n, q):.1f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Distributed uniformity testing toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="run one tester against one input")
    test.add_argument("--tester", choices=TESTER_CHOICES, default="threshold")
    test.add_argument("--input", choices=INPUT_CHOICES, default="two_level")
    test.add_argument("--n", type=int, default=1024)
    test.add_argument("--k", type=int, default=16)
    test.add_argument("--eps", type=float, default=0.5)
    test.add_argument("--q", type=int, default=None)
    test.add_argument("--trials", type=int, default=300)
    test.add_argument("--seed", type=int, default=0)
    _add_engine_options(test)
    test.set_defaults(func=_cmd_test)

    complexity = sub.add_parser("complexity", help="search empirical q*")
    complexity.add_argument("--tester", choices=TESTER_CHOICES, default="threshold")
    complexity.add_argument("--n", type=int, default=1024)
    complexity.add_argument("--k", type=int, default=16)
    complexity.add_argument("--eps", type=float, default=0.5)
    complexity.add_argument("--trials", type=int, default=200)
    complexity.add_argument("--seed", type=int, default=0)
    complexity.add_argument(
        "--sprt",
        action="store_true",
        help="classify each level by block-granular sequential testing",
    )
    complexity.add_argument(
        "--sprt-margin",
        type=float,
        default=0.05,
        help="Wald indifference half-width around the target",
    )
    complexity.add_argument(
        "--sprt-error-rate",
        type=float,
        default=0.05,
        help="two-sided SPRT error bound per side",
    )
    complexity.add_argument(
        "--sprt-max-trials",
        type=int,
        default=None,
        help="trial cap per (level, side) probe (default 4x --trials)",
    )
    _add_engine_options(complexity)
    complexity.set_defaults(func=_cmd_complexity)

    experiment = sub.add_parser("experiment", help="run a registered experiment")
    experiment.add_argument("experiment_id", help="e01 ... e19")
    _add_sweep_options(experiment)
    _add_engine_options(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    run_all = sub.add_parser(
        "run-all", help="run every registered experiment at one scale"
    )
    run_all.add_argument(
        "--only", nargs="*", default=None, help="subset of experiment ids"
    )
    _add_sweep_options(run_all)
    _add_engine_options(run_all)
    run_all.set_defaults(func=_cmd_run_all)

    battery = sub.add_parser(
        "battery",
        help="run every registered streaming plugin over one shared stream",
    )
    battery.add_argument(
        "--scale",
        choices=tuple(BATTERY_SCALES),
        default="smoke",
        help="preset (n, trials) size; --n/--trials override individually",
    )
    battery.add_argument("--n", type=int, default=None)
    battery.add_argument("--eps", type=float, default=0.5)
    battery.add_argument("--trials", type=int, default=None)
    battery.add_argument("--input", choices=INPUT_CHOICES, default="uniform")
    battery.add_argument("--seed", type=int, default=0)
    battery.add_argument(
        "--chunk",
        type=int,
        default=16,
        help="stream column width per update() call",
    )
    battery.add_argument(
        "--only", nargs="*", default=None, help="subset of plugin names"
    )
    battery.set_defaults(func=_cmd_battery)

    bounds = sub.add_parser("bounds", help="print the paper's lower bounds")
    bounds.add_argument("--n", type=int, default=4096)
    bounds.add_argument("--k", type=int, default=16)
    bounds.add_argument("--eps", type=float, default=0.5)
    bounds.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
