"""``python -m repro.lint`` — the determinism & citation lint gate.

Usage::

    python -m repro.lint [paths ...] [--select RL1,RL401] [--ignore RL7]
                         [--format text|json|github] [--no-cache]
                         [--cache-dir DIR] [--stats] [--list-rules]

Exit codes follow linter convention: ``0`` clean, ``1`` diagnostics
found, ``2`` usage error (missing path, unknown rule code).

Filter precedence: ``--select`` first narrows the rule set (codes or
prefixes, comma-separated), then ``--ignore`` removes from whatever was
selected — so ``--select RL1 --ignore RL103`` runs RL101/RL102/RL104/
RL105, and an ignore always beats a select naming the same code.

The incremental cache is on by default (``.repro-lint-cache/``): files
whose content and transitive import closure are unchanged replay their
recorded diagnostics, and any edit to the linter itself invalidates it.
Warm output is byte-identical to a cold run; ``--stats`` prints
hit/miss/timing counters to stderr (never stdout, so piped output is
unaffected).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .cache import DEFAULT_CACHE_DIR, CacheStats
from .registry import rule_classes
from .runner import LintUsageError, lint_paths
from ..engine.metrics import monotonic_clock

#: Exit codes (linter convention).
EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based determinism & paper-citation linter "
        "(rule catalog: docs/static-analysis.md)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes/prefixes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes/prefixes to skip "
        "(applied after --select; ignore beats select)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="diagnostic output format (github = ::error annotations)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache (always lint everything)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"incremental cache location (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print cache hit/miss and timing counters to stderr",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _print_rule_catalog() -> None:
    for rule_class in rule_classes():
        print(
            f"{rule_class.code}  {rule_class.name} "
            f"[{rule_class.default_severity}]: {rule_class.summary}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _print_rule_catalog()
        return EXIT_CLEAN
    stats = CacheStats()
    started = monotonic_clock()
    try:
        diagnostics = lint_paths(
            args.paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
            cache_dir=None if args.no_cache else args.cache_dir,
            stats=stats,
        )
    except LintUsageError as error:
        print(f"repro.lint: error: {error}", file=sys.stderr)
        return EXIT_USAGE
    stats.elapsed_seconds = monotonic_clock() - started
    if args.stats:
        if args.no_cache:
            print(
                "repro.lint: cache disabled "
                f"elapsed={stats.elapsed_seconds:.3f}s",
                file=sys.stderr,
            )
        else:
            print(stats.format(), file=sys.stderr)
    if args.format == "json":
        print(json.dumps([d.to_json() for d in diagnostics], indent=2))
    elif args.format == "github":
        for diagnostic in diagnostics:
            print(diagnostic.format_github())
    else:
        for diagnostic in diagnostics:
            print(diagnostic.format())
        noun = "issue" if len(diagnostics) == 1 else "issues"
        print(
            f"repro.lint: {len(diagnostics)} {noun} "
            f"in {stats.files_total} file(s) scanned"
        )
    return EXIT_VIOLATIONS if diagnostics else EXIT_CLEAN
