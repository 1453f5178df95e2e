"""Golden-file tests: every rule has violating and clean snippets.

Each fixture under ``golden/`` carries its expectations inline: a
``# expect: RLxxx`` comment marks the line where that diagnostic must
fire, and a file with no ``expect`` comments must lint clean.  Fixtures
use ``# lint-path:`` markers to opt into the path-scoped rules
(citations, wall-clock allowlist, the RNG coercion-module exemption).
"""

import os
import re

import pytest

from repro.lint import lint_paths, lint_source, rule_codes
from repro.lint.cache import CacheStats
from repro.lint.registry import SYNTAX_ERROR_CODE

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<codes>RL[0-9]+(?:\s*,\s*RL[0-9]+)*)")

GOLDEN_FILES = sorted(
    name for name in os.listdir(GOLDEN_DIR) if name.endswith(".py")
)


def expected_diagnostics(path):
    """The (line, code) pairs a fixture's ``# expect:`` comments declare."""
    expected = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, text in enumerate(handle, start=1):
            match = _EXPECT_RE.search(text)
            if match is None:
                continue
            for code in match.group("codes").split(","):
                expected.add((lineno, code.strip()))
    return expected


def test_golden_directory_is_populated():
    assert len(GOLDEN_FILES) >= 10


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden_file(name):
    path = os.path.join(GOLDEN_DIR, name)
    actual = {(d.line, d.code) for d in lint_paths([path])}
    assert actual == expected_diagnostics(path)


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden_file_replays_through_the_cache(name, tmp_path):
    """A cold cached run reports what an uncached run does, and a warm run
    replays the fixture's one entry to the same bytes without re-linting."""
    path = os.path.join(GOLDEN_DIR, name)
    cache_dir = str(tmp_path / "cache")
    uncached = [d.format() for d in lint_paths([path])]

    cold_stats, warm_stats = CacheStats(), CacheStats()
    cold = lint_paths([path], cache_dir=cache_dir, stats=cold_stats)
    warm = lint_paths([path], cache_dir=cache_dir, stats=warm_stats)
    assert [d.format() for d in cold] == uncached
    assert [d.format() for d in warm] == uncached
    assert (cold_stats.hits, cold_stats.misses) == (0, 1)
    assert (warm_stats.hits, warm_stats.misses) == (1, 0)


def test_every_rule_has_a_violating_fixture():
    covered = set()
    for name in GOLDEN_FILES:
        for _line, code in expected_diagnostics(os.path.join(GOLDEN_DIR, name)):
            covered.add(code)
    checkable = set(rule_codes()) - {SYNTAX_ERROR_CODE}
    assert covered == checkable


def test_every_rule_family_has_a_clean_fixture():
    clean = {
        name
        for name in GOLDEN_FILES
        if not expected_diagnostics(os.path.join(GOLDEN_DIR, name))
    }
    families = (
        "rng",
        "wallclock",
        "purity",
        "citations",
        "streams",
        "engine_bypass",
        "engine_perf",
        "shapes",
        "streaming",
    )
    for family in families:
        assert any(name.startswith(family) for name in clean), family


def test_syntax_error_reports_rl001():
    diagnostics = lint_source("def broken(:\n", path="broken.py")
    assert len(diagnostics) == 1
    assert diagnostics[0].code == SYNTAX_ERROR_CODE
    assert diagnostics[0].line == 1
    assert "does not parse" in diagnostics[0].message


def test_diagnostics_are_sorted_and_formatted():
    path = os.path.join(GOLDEN_DIR, "rng_violations.py")
    diagnostics = lint_paths([path])
    assert diagnostics == sorted(diagnostics)
    first = diagnostics[0]
    assert first.format() == (
        f"{first.path}:{first.line}:{first.col}: {first.code} {first.message}"
    )
