"""File discovery and the lint driver loop.

One serial pass: each file is parsed once and checked by every active
rule, and the diagnostics are merged through one global sort.  Every
rule is per-file, so with the incremental cache a file whose content is
unchanged replays its recorded diagnostics instead.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

from .cache import CacheStats, LintCache, fingerprint, rules_cache_key
from .context import ModuleContext
from .diagnostics import Diagnostic
from .registry import SYNTAX_ERROR_CODE, Rule, active_rules

#: Directory names never descended into during discovery.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


class LintUsageError(Exception):
    """A bad invocation (missing path, unknown rule code): exit code 2."""


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    name
                    for name in dirnames
                    if name not in _SKIPPED_DIRS and not name.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        files.append(os.path.join(root, filename))
        else:
            raise LintUsageError(f"path does not exist: {path}")
    return sorted(dict.fromkeys(files))


def lint_source(
    source: str,
    path: str = "<string>",
    module_path: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Diagnostic]:
    """Lint one in-memory source text; returns sorted diagnostics.

    Unparsable sources yield a single ``RL001`` syntax-error diagnostic
    (suppressible only file-wide, like any other code).
    """
    try:
        ctx = ModuleContext(source, path, module_path=module_path)
    except SyntaxError as error:
        return [
            Diagnostic(
                path=path,
                line=error.lineno or 1,
                col=max((error.offset or 1) - 1, 0),
                code=SYNTAX_ERROR_CODE,
                message=f"file does not parse: {error.msg}",
            )
        ]
    findings: List[Diagnostic] = []
    for rule in rules if rules is not None else active_rules():
        for diagnostic in rule.check(ctx):
            if not ctx.pragmas.is_disabled(diagnostic.code, diagnostic.line):
                findings.append(diagnostic)
    return sorted(findings)


def _read_files(paths: Sequence[str]) -> List[Tuple[str, str]]:
    files: List[Tuple[str, str]] = []
    for filename in iter_python_files(paths):
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                files.append((filename, handle.read()))
        except OSError as error:
            raise LintUsageError(f"cannot read {filename}: {error}") from error
    return files


def _lint_incremental(
    files: Sequence[Tuple[str, str]],
    rules: Sequence[Rule],
    cache_dir: str,
    stats: Optional[CacheStats],
) -> List[Diagnostic]:
    """Cache-aware lint: replay unchanged files, re-lint changed ones.

    Byte-parity with the cold path rests on every rule being per-file:
    a file's diagnostics depend only on its own source, the active rules
    and the linter's own source, all captured in the content fingerprint
    and the ``rules_key`` (see :mod:`repro.lint.cache`).
    """
    cache = LintCache(cache_dir, rules_cache_key(rules))
    findings: List[Diagnostic] = []
    hits = 0
    for path, source in files:
        content_hash = fingerprint(source)
        replayed = cache.replay(path, content_hash)
        if replayed is None:
            replayed = lint_source(source, path=path, rules=rules)
            cache.store(path, content_hash, replayed)
        else:
            hits += 1
        findings.extend(replayed)
    cache.prune([path for path, _ in files])
    cache.save()
    if stats is not None:
        stats.hits = hits
        stats.misses = len(files) - hits
    return sorted(findings)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    cache_dir: Optional[str] = None,
    stats: Optional[CacheStats] = None,
) -> List[Diagnostic]:
    """Lint every ``.py`` file under ``paths``; returns sorted diagnostics.

    ``cache_dir`` opts into the incremental cache: files whose content
    is unchanged replay their recorded diagnostics, everything else is
    re-linted and re-stored.  ``stats``, when given, receives the number
    of files read and, with the cache, the hit/miss counters.
    """
    try:
        rules = active_rules(select=select, ignore=ignore)
    except ValueError as error:
        raise LintUsageError(str(error)) from error
    files = _read_files(paths)
    if stats is not None:
        stats.files_total = len(files)

    if cache_dir is not None:
        return _lint_incremental(files, rules, cache_dir, stats)
    findings: List[Diagnostic] = []
    for filename, source in files:
        findings.extend(lint_source(source, path=filename, rules=rules))
    return sorted(findings)
