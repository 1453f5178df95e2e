"""Incremental lint cache: content fingerprints + dependency-aware reuse.

The whole-program resource pass (RL7xx) makes the linter
quadratic-feeling on warm edits: touching one file re-analyses every
file.  This module
stores, per linted file, a content fingerprint, the module's import
list, and its final diagnostics.  On the next run a file is **dirty**
iff its own fingerprint changed or the fingerprint of any *dataflow
dependency* — a module it (transitively) imports — changed.  Clean
files replay their cached diagnostics byte-for-byte; dirty files are
re-linted against a program analysis built over the dirty set plus its
transitive dependencies (the modules whose summaries feed its
interprocedural findings).

Soundness model
---------------
A file's diagnostics are a pure function of (its source, the sources of
its transitive import closure, the active rule set, the linter's own
source).  Two situations fall outside that model and degrade to a full
re-lint rather than risk stale output:

* the cache was written by a different rule selection or by a linter
  whose source differs in any ``.py`` file of this package
  (``rules_key`` mismatch — the whole cache is discarded), and
* module-name collisions (two files claiming the same ``lint-path``),
  where first-definition-wins resolution couples otherwise unrelated
  files; the planner then treats every file as depending on every
  other.

Cache layout: one JSON document, ``<cache_dir>/cache.json``::

    {"rules_key": "...",
     "files": {path: {"hash": ..., "module": ..., "imports": [...],
                      "diagnostics": [[line, col, code, message], ...]}}}
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from .diagnostics import Diagnostic

#: Default cache location, relative to the invocation directory.
DEFAULT_CACHE_DIR = ".repro-lint-cache"


def fingerprint(source: str) -> str:
    """Content hash of one file (the only staleness signal we trust)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1)
def _linter_digest() -> str:
    """SHA-256 over every ``.py`` file of this package, path and bytes.

    Any edit to a rule, the runner or this module changes it, so a
    cache written by a different linter is never replayed.
    """
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for root, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(root, filename)
            digest.update(os.path.relpath(path, package).encode("utf-8"))
            digest.update(b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


def rules_cache_key(rules: Sequence[object]) -> str:
    """Cache validity key: the linter's source digest + the active codes."""
    codes = ",".join(sorted(getattr(rule, "code", "?") for rule in rules))
    return f"{_linter_digest()}:{codes}"


@dataclass
class CacheStats:
    """Counters surfaced by ``--stats`` (written to stderr)."""

    files_total: int = 0
    hits: int = 0  # diagnostics replayed from cache
    misses: int = 0  # files re-linted (changed or dep-dirtied)
    changed: int = 0  # fingerprint differed (or no entry)
    dep_dirty: int = 0  # unchanged, but a transitive dependency changed
    analyzed: int = 0  # files fed to the program analysis
    degraded: bool = False  # module-name collision → full dep graph
    elapsed_seconds: float = 0.0

    def format(self) -> str:
        parts = [
            f"files={self.files_total}",
            f"hits={self.hits}",
            f"misses={self.misses}",
            f"changed={self.changed}",
            f"dep-dirty={self.dep_dirty}",
            f"analyzed={self.analyzed}",
        ]
        if self.degraded:
            parts.append("degraded=module-collision")
        parts.append(f"elapsed={self.elapsed_seconds:.3f}s")
        return "repro.lint: cache " + " ".join(parts)


@dataclass
class IncrementalPlan:
    """What a warm run must actually do.

    ``dirty`` files are re-linted; every other file replays its cached
    diagnostics.  ``analysis_paths`` is the superset the program
    analysis must be built over: the dirty files plus their transitive
    import closure, whose converged summaries dirty files' findings
    depend on.
    """

    dirty: Set[str] = field(default_factory=set)
    analysis_paths: Set[str] = field(default_factory=set)
    stats: CacheStats = field(default_factory=CacheStats)


class LintCache:
    """Load/validate/update the single-document JSON cache."""

    def __init__(self, cache_dir: str, key: str):
        self.cache_dir = cache_dir
        self.path = os.path.join(cache_dir, "cache.json")
        self.key = key
        self.files: Dict[str, dict] = {}
        self._load()

    # ------------------------------------------------------------------ #
    # persistence                                                        #
    # ------------------------------------------------------------------ #

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError):
            return  # no cache / corrupt cache: start cold
        if not isinstance(raw, dict):
            return
        if raw.get("rules_key") != self.key:
            return  # different rule set or linter source: discard wholesale
        files = raw.get("files")
        if isinstance(files, dict):
            self.files = files

    def save(self) -> None:
        """Atomically persist the cache (tmp + rename; crash-safe)."""
        os.makedirs(self.cache_dir, exist_ok=True)
        document = {
            "rules_key": self.key,
            "files": self.files,
        }
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        os.replace(tmp, self.path)

    # ------------------------------------------------------------------ #
    # entries                                                            #
    # ------------------------------------------------------------------ #

    def entry(self, path: str) -> Optional[dict]:
        entry = self.files.get(path)
        return entry if isinstance(entry, dict) else None

    def cached_diagnostics(self, path: str) -> List[Diagnostic]:
        entry = self.entry(path)
        if entry is None:
            return []
        revived = []
        for line, col, code, message in entry.get("diagnostics", ()):
            revived.append(
                Diagnostic(
                    path=path, line=line, col=col, code=code, message=message
                )
            )
        return revived

    def store(
        self,
        path: str,
        content_hash: str,
        module: Optional[str],
        imports: Sequence[str],
        diagnostics: Sequence[Diagnostic],
    ) -> None:
        self.files[path] = {
            "hash": content_hash,
            "module": module,
            "imports": sorted(set(imports)),
            "diagnostics": [
                [d.line, d.col, d.code, d.message] for d in diagnostics
            ],
        }

    def prune(self, live_paths: Sequence[str]) -> None:
        """Drop entries for files no longer part of the lint set."""
        live = set(live_paths)
        for path in list(self.files):
            if path not in live:
                del self.files[path]


# ---------------------------------------------------------------------- #
# invalidation planning                                                  #
# ---------------------------------------------------------------------- #


def _resolve_deps(
    imports: Sequence[str], module_to_path: Dict[str, str], self_path: str
) -> Set[str]:
    """Map canonical import names to linted files (longest-prefix wins)."""
    deps: Set[str] = set()
    for name in imports:
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            target = module_to_path.get(".".join(parts[:cut]))
            if target is not None:
                if target != self_path:
                    deps.add(target)
                break
    return deps


def plan_incremental(
    cache: LintCache,
    hashes: Dict[str, str],
    modules: Dict[str, Optional[str]],
    imports: Dict[str, Sequence[str]],
) -> IncrementalPlan:
    """Decide which files must be re-linted this run.

    ``hashes``/``modules``/``imports`` cover every file in the run —
    for unchanged files the module name and import list come from the
    cache entry (same content ⇒ same parse), so the caller only parses
    files whose fingerprint moved.
    """
    plan = IncrementalPlan()

    changed: Set[str] = set()
    for path, content_hash in hashes.items():
        entry = cache.entry(path)
        if entry is None or entry.get("hash") != content_hash:
            changed.add(path)
    plan.stats.changed = len(changed)

    # Module map for import resolution; collisions break the "findings
    # depend only on the import closure" model (first-definition-wins
    # in the module graph couples unrelated files), so degrade.
    module_to_path: Dict[str, str] = {}
    collision = False
    for path in sorted(hashes):
        module = modules.get(path)
        if module is None:
            continue
        if module in module_to_path:
            collision = True
            break
        module_to_path[module] = path

    if collision:
        plan.stats.degraded = True
        plan.dirty = set(hashes)
        plan.analysis_paths = set(hashes)
        plan.stats.misses = len(plan.dirty)
        plan.stats.dep_dirty = len(plan.dirty) - len(changed & plan.dirty)
        return plan

    deps_of = {
        path: _resolve_deps(imports.get(path, ()), module_to_path, path)
        for path in hashes
    }
    importers_of: Dict[str, Set[str]] = {}
    for path, deps in deps_of.items():
        for dep in deps:
            importers_of.setdefault(dep, set()).add(path)

    # Dirty = changed plus everything that (transitively) imports a
    # changed file: its interprocedural findings may shift.
    dirty = set(changed)
    frontier = list(changed)
    while frontier:
        path = frontier.pop()
        for importer in importers_of.get(path, ()):
            if importer not in dirty:
                dirty.add(importer)
                frontier.append(importer)

    # The analysis closure adds the dirty files' transitive imports:
    # clean themselves, but their summaries feed dirty files' findings.
    closure = set(dirty)
    frontier = list(dirty)
    while frontier:
        path = frontier.pop()
        for dep in deps_of.get(path, ()):
            if dep not in closure:
                closure.add(dep)
                frontier.append(dep)

    plan.dirty = dirty
    plan.analysis_paths = closure
    plan.stats.misses = len(dirty)
    plan.stats.dep_dirty = len(dirty - changed)
    return plan
