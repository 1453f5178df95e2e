"""File discovery and the lint driver loop.

One serial pass: every file is parsed once, the whole-program RL7xx
analysis is built once over the parsed set (iff an active rule needs
it), then each file's rules run in-process and the diagnostics are
merged through one global sort.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

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
    program: Optional[object] = None,
    ctx: Optional[ModuleContext] = None,
) -> List[Diagnostic]:
    """Lint one in-memory source text; returns sorted diagnostics.

    Unparsable sources yield a single ``RL001`` syntax-error diagnostic
    (suppressible only file-wide, like any other code).  ``program`` is
    the invocation-wide dataflow analysis, when one was built; ``ctx``
    an already-parsed context (the runner parses each file only once).
    """
    if ctx is None:
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
    ctx.program = program
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


def _build_program(
    rules: Sequence[Rule],
    files: Sequence[Tuple[str, str]],
    contexts: Optional[Dict[str, ModuleContext]] = None,
) -> Optional[object]:
    """The shared dataflow analysis, iff any active rule needs it."""
    if not any(getattr(rule, "requires_program", False) for rule in rules):
        return None
    from .dataflow import analyze_program

    return analyze_program(files, contexts=contexts)


def _evaluate(
    files: Sequence[Tuple[str, str]],
    rules: Sequence[Rule],
    contexts: Dict[str, ModuleContext],
    program: Optional[object],
) -> List[Diagnostic]:
    """Per-file rule evaluation over already-parsed contexts."""
    findings: List[Diagnostic] = []
    for filename, source in files:
        findings.extend(
            lint_source(
                source,
                path=filename,
                rules=rules,
                program=program,
                ctx=contexts.get(filename),
            )
        )
    return sorted(findings)


def _lint_incremental(
    files: Sequence[Tuple[str, str]],
    rules: Sequence[Rule],
    cache_dir: str,
    stats: Optional[object],
) -> List[Diagnostic]:
    """Cache-aware lint: replay clean files, re-lint the dirty closure.

    Byte-parity with the cold path rests on the cache module's model:
    a file's diagnostics depend only on its own source, its transitive
    import closure, the active rules and the linter's own source — all
    captured in the fingerprints and the ``rules_key``.  See
    :mod:`repro.lint.cache` for the degradation rules when that model
    does not hold.
    """
    from .cache import LintCache, fingerprint, plan_incremental, rules_cache_key
    from .dataflow.modules import module_name_from_path

    cache = LintCache(cache_dir, rules_cache_key(rules))
    source_of = dict(files)
    hashes = {path: fingerprint(source) for path, source in files}

    # Parse only files whose fingerprint moved; unchanged files reuse
    # the module name and import list recorded at their last lint
    # (same content ⇒ same parse).
    contexts: Dict[str, ModuleContext] = {}
    modules: Dict[str, Optional[str]] = {}
    imports: Dict[str, Sequence[str]] = {}
    for path, source in files:
        entry = cache.entry(path)
        if entry is not None and entry.get("hash") == hashes[path]:
            modules[path] = entry.get("module")
            imports[path] = entry.get("imports", ())
            continue
        try:
            ctx = ModuleContext(source, path)
        except SyntaxError:
            modules[path] = None
            imports[path] = ()
            continue
        contexts[path] = ctx
        modules[path] = module_name_from_path(ctx.module_path)
        imports[path] = sorted(set(ctx.aliases.values()))

    plan = plan_incremental(cache, hashes, modules, imports)

    # Clean dependencies of dirty files still feed the program analysis.
    for path in sorted(plan.analysis_paths):
        if path not in contexts:
            try:
                contexts[path] = ModuleContext(source_of[path], path)
            except SyntaxError:
                pass
    analysis_files = [item for item in files if item[0] in plan.analysis_paths]
    program = _build_program(rules, analysis_files, contexts)
    plan.stats.analyzed = len(analysis_files) if program is not None else 0

    dirty_files = [item for item in files if item[0] in plan.dirty]
    findings = _evaluate(dirty_files, rules, contexts, program)

    fresh_by_path: Dict[str, List[Diagnostic]] = {
        path: [] for path, _ in dirty_files
    }
    for diagnostic in findings:
        fresh_by_path[diagnostic.path].append(diagnostic)
    for path, _ in files:
        if path in plan.dirty:
            cache.store(
                path,
                hashes[path],
                modules[path],
                imports[path],
                fresh_by_path[path],
            )
        else:
            plan.stats.hits += 1
            findings.extend(cache.cached_diagnostics(path))
    cache.prune([path for path, _ in files])
    cache.save()

    if stats is not None:
        for name in (
            "hits",
            "misses",
            "changed",
            "dep_dirty",
            "analyzed",
            "degraded",
        ):
            setattr(stats, name, getattr(plan.stats, name))
    return sorted(findings)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    cache_dir: Optional[str] = None,
    stats: Optional[object] = None,
) -> List[Diagnostic]:
    """Lint every ``.py`` file under ``paths``; returns sorted diagnostics.

    ``cache_dir`` opts into the incremental cache: unchanged files whose
    transitive import closure is also unchanged replay their recorded
    diagnostics, everything else is re-linted and re-stored.  ``stats``,
    when given a :class:`repro.lint.cache.CacheStats`, receives the
    number of files read and, with the cache, the hit/miss counters.
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

    contexts: Dict[str, ModuleContext] = {}
    for filename, source in files:
        try:
            contexts[filename] = ModuleContext(source, filename)
        except SyntaxError:
            pass  # lint_source re-parses and emits RL001
    program = _build_program(rules, files, contexts)
    return _evaluate(files, rules, contexts, program)
