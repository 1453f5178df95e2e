"""Incremental cache: byte parity, per-file invalidation, stats."""

import json
import os
import shutil
import subprocess
import sys
import textwrap

from repro.lint import lint_paths
from repro.lint.cache import CacheStats, LintCache, rules_cache_key
from repro.lint.context import ModuleContext
from repro.lint.registry import active_rules

HELPER = """\
# lint-path: repro/io/helpers.py
def scale(x):
    return x * 2
"""

#: The helper edited to read a clock (RL201 at line 6).
HELPER_CLOCKED = """\
# lint-path: repro/io/helpers.py
import time


def scale(x):
    return x * time.time()
"""

#: Imports the helper; its stdlib ``random`` import is RL103 at line 2.
CONSUMER = """\
# lint-path: repro/io/consumer.py
import random

from repro.io.helpers import scale


def use(x):
    return scale(x) + random.random()
"""

LEAF = """\
# lint-path: repro/io/leaf.py
def double(x):
    return x * 2
"""

#: Reads a clock under the lint-path RL201 allowlists.
TIMING_PROBE = """\
# lint-path: repro/experiments/timing.py
import time


def now():
    return time.perf_counter()
"""

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def _write_tree(root, helpers=HELPER):
    paths = {}
    for name, source in (
        ("helpers.py", helpers),
        ("consumer.py", CONSUMER),
        ("leaf.py", LEAF),
    ):
        path = os.path.join(str(root), name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        paths[name] = path
    return paths


def test_warm_run_is_byte_identical_with_all_hits(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    _write_tree(tree)
    cache_dir = str(tmp_path / "cache")

    cold = lint_paths([str(tree)], cache_dir=cache_dir)
    warm_stats = CacheStats()
    warm = lint_paths([str(tree)], cache_dir=cache_dir, stats=warm_stats)

    assert warm == cold
    assert [(d.code, os.path.basename(d.path)) for d in warm] == [
        ("RL103", "consumer.py")
    ]
    assert warm_stats.hits == 3
    assert warm_stats.misses == 0


def test_cache_matches_uncached_output(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    _write_tree(tree)
    cache_dir = str(tmp_path / "cache")

    uncached = lint_paths([str(tree)])
    cached_cold = lint_paths([str(tree)], cache_dir=cache_dir)
    cached_warm = lint_paths([str(tree)], cache_dir=cache_dir)
    assert cached_cold == uncached
    assert cached_warm == uncached


def test_editing_a_file_relints_only_that_file(tmp_path):
    """Every rule is per-file: an edit to an imported helper re-lints the
    helper alone, and the file importing it replays from the cache."""
    tree = tmp_path / "tree"
    tree.mkdir()
    paths = _write_tree(tree)
    cache_dir = str(tmp_path / "cache")
    lint_paths([str(tree)], cache_dir=cache_dir)

    with open(paths["helpers.py"], "w", encoding="utf-8") as handle:
        handle.write(HELPER_CLOCKED)

    stats = CacheStats()
    warm = lint_paths([str(tree)], cache_dir=cache_dir, stats=stats)
    assert [(d.line, d.code, os.path.basename(d.path)) for d in warm] == [
        (2, "RL103", "consumer.py"),
        (6, "RL201", "helpers.py"),
    ]
    assert warm == lint_paths([str(tree)])
    assert stats.misses == 1  # helpers.py
    assert stats.hits == 2  # consumer.py and leaf.py replay


def test_editing_a_leaf_leaves_other_files_cached(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    paths = _write_tree(tree)
    cache_dir = str(tmp_path / "cache")
    lint_paths([str(tree)], cache_dir=cache_dir)

    with open(paths["leaf.py"], "a", encoding="utf-8") as handle:
        handle.write("\n\ndef triple(x):\n    return x * 3\n")

    stats = CacheStats()
    lint_paths([str(tree)], cache_dir=cache_dir, stats=stats)
    assert stats.misses == 1
    assert stats.hits == 2


def test_rule_selection_change_discards_the_cache(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    _write_tree(tree)
    cache_dir = str(tmp_path / "cache")

    lint_paths([str(tree)], select=["RL1"], cache_dir=cache_dir)
    stats = CacheStats()
    lint_paths([str(tree)], select=["RL2"], cache_dir=cache_dir, stats=stats)
    assert stats.hits == 0
    assert stats.misses == 3


def test_cache_from_another_linter_source_is_discarded(tmp_path):
    """Same active codes, different linter digest: nothing replays."""
    tree = tmp_path / "tree"
    tree.mkdir()
    _write_tree(tree)
    cache_dir = tmp_path / "cache"
    cold = lint_paths([str(tree)], cache_dir=str(cache_dir))

    document_path = cache_dir / "cache.json"
    document = json.loads(document_path.read_text(encoding="utf-8"))
    digest, codes = document["rules_key"].split(":", 1)
    document["rules_key"] = f"{'0' * len(digest)}:{codes}"
    document_path.write_text(json.dumps(document), encoding="utf-8")

    stats = CacheStats()
    again = lint_paths([str(tree)], cache_dir=str(cache_dir), stats=stats)
    assert again == cold
    assert stats.hits == 0
    assert stats.misses == 3


def _count_parses(monkeypatch):
    """Record the path of every :class:`ModuleContext` built from now on."""
    parsed = []
    original = ModuleContext.__init__

    def counting_init(self, source, path, *args, **kwargs):
        parsed.append(os.path.basename(path))
        original(self, source, path, *args, **kwargs)

    monkeypatch.setattr(ModuleContext, "__init__", counting_init)
    return parsed


def test_uncached_run_parses_each_file_once(tmp_path, monkeypatch):
    tree = tmp_path / "tree"
    tree.mkdir()
    _write_tree(tree)
    parsed = _count_parses(monkeypatch)
    lint_paths([str(tree)])
    assert sorted(parsed) == ["consumer.py", "helpers.py", "leaf.py"]


def test_cold_cached_run_parses_each_file_once(tmp_path, monkeypatch):
    tree = tmp_path / "tree"
    tree.mkdir()
    _write_tree(tree)
    parsed = _count_parses(monkeypatch)
    lint_paths([str(tree)], cache_dir=str(tmp_path / "cache"))
    assert sorted(parsed) == ["consumer.py", "helpers.py", "leaf.py"]


def test_warm_run_parses_nothing(tmp_path, monkeypatch):
    tree = tmp_path / "tree"
    tree.mkdir()
    _write_tree(tree)
    cache_dir = str(tmp_path / "cache")
    lint_paths([str(tree)], cache_dir=cache_dir)
    parsed = _count_parses(monkeypatch)
    lint_paths([str(tree)], cache_dir=cache_dir)
    assert parsed == []


def test_editing_a_file_parses_only_that_file(tmp_path, monkeypatch):
    tree = tmp_path / "tree"
    tree.mkdir()
    paths = _write_tree(tree)
    cache_dir = str(tmp_path / "cache")
    lint_paths([str(tree)], cache_dir=cache_dir)
    with open(paths["helpers.py"], "w", encoding="utf-8") as handle:
        handle.write(HELPER_CLOCKED)

    parsed = _count_parses(monkeypatch)
    lint_paths([str(tree)], cache_dir=cache_dir)
    assert parsed == ["helpers.py"]


def test_cached_diagnostics_revive_exactly(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    path = os.path.join(str(tree), "noisy.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            textwrap.dedent(
                """\
                # lint-path: repro/io/noisy.py
                import random
                import time

                import numpy as np


                def draw():
                    rng = np.random.default_rng()
                    return rng.random() + random.random() + time.time()
                """
            )
        )
    cache_dir = str(tmp_path / "cache")
    cold = lint_paths([path], cache_dir=cache_dir)
    warm = lint_paths([path], cache_dir=cache_dir)
    assert len({d.code for d in cold}) == 3
    assert warm == cold
    assert [d.format() for d in warm] == [d.format() for d in cold]


def test_files_sharing_a_lint_path_replay_independently(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    for name in ("first.py", "second.py"):
        with open(os.path.join(str(tree), name), "w", encoding="utf-8") as handle:
            handle.write("# lint-path: repro/io/same.py\nimport random\n")
    cache_dir = str(tmp_path / "cache")
    cold = lint_paths([str(tree)], cache_dir=cache_dir)
    stats = CacheStats()
    warm = lint_paths([str(tree)], cache_dir=cache_dir, stats=stats)
    assert warm == cold
    assert [d.code for d in warm] == ["RL103", "RL103"]
    assert stats.hits == 2
    assert stats.misses == 0


def test_stale_entries_are_pruned(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    paths = _write_tree(tree)
    cache_dir = str(tmp_path / "cache")
    lint_paths([str(tree)], cache_dir=cache_dir)

    os.unlink(paths["leaf.py"])
    lint_paths([str(tree)], cache_dir=cache_dir)

    with open(os.path.join(cache_dir, "cache.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    assert paths["leaf.py"] not in document["files"]
    assert len(document["files"]) == 2


def test_corrupt_cache_file_falls_back_to_cold(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    _write_tree(tree)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "cache.json").write_text("{not json", encoding="utf-8")

    stats = CacheStats()
    diagnostics = lint_paths(
        [str(tree)], cache_dir=str(cache_dir), stats=stats
    )
    assert diagnostics == lint_paths([str(tree)])
    assert stats.hits == 0
    assert stats.misses == 3
    # And the bad document was replaced by a valid one.
    cache = LintCache(str(cache_dir), rules_cache_key(active_rules()))
    assert len(cache.files) == 3


def test_editing_a_rule_invalidates_the_cache(tmp_path):
    """A warm run after a rule edit reports exactly what a cold run does."""
    src = tmp_path / "src"
    shutil.copytree(
        os.path.join(REPO_SRC, "repro"),
        str(src / "repro"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    probe = tmp_path / "probe.py"
    probe.write_text(TIMING_PROBE, encoding="utf-8")
    cache_dir = str(tmp_path / "cache")
    env = dict(os.environ, PYTHONPATH=str(src))

    def lint(*options):
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *options, str(probe)],
            cwd=str(tmp_path),
            env=env,
            capture_output=True,
            text=True,
        )

    warm_up = lint("--cache-dir", cache_dir)
    assert warm_up.returncode == 0, warm_up.stdout + warm_up.stderr

    rule = src / "repro" / "lint" / "rules" / "wallclock.py"
    text = rule.read_text(encoding="utf-8")
    assert '"repro/experiments/timing.py",' in text
    rule.write_text(
        text.replace('"repro/experiments/timing.py",', ""), encoding="utf-8"
    )

    warm = lint("--cache-dir", cache_dir)
    cold = lint("--no-cache")
    assert cold.returncode == 1, cold.stdout + cold.stderr
    assert "RL201" in cold.stdout
    assert (warm.returncode, warm.stdout) == (cold.returncode, cold.stdout)
