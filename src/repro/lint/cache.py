"""Incremental lint cache: one content-fingerprinted entry per file.

Every rule is per-file, so a file's diagnostics are a pure function of
(its source, the active rule set, the linter's own source).  The cache
stores, per linted file, the SHA-256 of its content and its final
diagnostics.  On the next run a file is **dirty** iff it has no entry or
its fingerprint changed; dirty files are re-linted and re-stored, every
other file replays its cached diagnostics byte-for-byte.

The whole cache is discarded when it was written by a different rule
selection or by a linter whose source differs in any ``.py`` file of
this package (``rules_key`` mismatch).  A missing or corrupt document
starts cold.

Cache layout: one JSON document, ``<cache_dir>/cache.json``::

    {"rules_key": "...",
     "files": {path: {"hash": ...,
                      "diagnostics": [[line, col, code, message], ...]}}}
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

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
    hits: int = 0  # unchanged files, diagnostics replayed from cache
    misses: int = 0  # files re-linted (changed, or no entry)
    elapsed_seconds: float = 0.0

    def format(self) -> str:
        return (
            f"repro.lint: cache files={self.files_total} hits={self.hits} "
            f"misses={self.misses} elapsed={self.elapsed_seconds:.3f}s"
        )


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

    def replay(self, path: str, content_hash: str) -> Optional[List[Diagnostic]]:
        """The diagnostics recorded for ``path``, or ``None`` when it has
        no entry or its content changed since they were recorded."""
        entry = self.files.get(path)
        if not isinstance(entry, dict) or entry.get("hash") != content_hash:
            return None
        return [
            Diagnostic(path=path, line=line, col=col, code=code, message=message)
            for line, col, code, message in entry.get("diagnostics", ())
        ]

    def store(
        self, path: str, content_hash: str, diagnostics: Sequence[Diagnostic]
    ) -> None:
        self.files[path] = {
            "hash": content_hash,
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
