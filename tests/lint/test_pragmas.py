"""Pragma parsing: placement, multi-code lists, justification text."""

import os

import pytest

from repro.lint import rule_codes
from repro.lint.pragmas import Pragmas
from repro.lint.runner import lint_source

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def test_file_pragma_after_shebang_and_coding_lines():
    source = (
        "#!/usr/bin/env python\n"
        "# -*- coding: utf-8 -*-\n"
        "# repro-lint: disable-file=RL103\n"
        "import random\n"
    )
    pragmas = Pragmas(source)
    assert pragmas.file_wide == frozenset({"RL103"})
    assert lint_source(source, path="x.py") == []


def test_file_pragma_with_multiple_codes():
    source = "# repro-lint: disable-file=RL101, RL103\nimport random\n"
    pragmas = Pragmas(source)
    assert pragmas.file_wide == frozenset({"RL101", "RL103"})
    assert lint_source(source, path="x.py") == []


def test_trailing_justification_does_not_corrupt_codes():
    """Free-form text after the code list must not merge into a code."""
    source = (
        "# repro-lint: disable-file=RL103 stdlib random is fine in this demo\n"
        "import random\n"
    )
    pragmas = Pragmas(source)
    assert pragmas.file_wide == frozenset({"RL103"})
    assert lint_source(source, path="x.py") == []


def test_line_pragma_with_justification_text():
    source = "import random  # repro-lint: disable=RL103 demo-only import\n"
    assert lint_source(source, path="x.py") == []


def test_line_pragma_only_suppresses_its_own_line():
    source = (
        "import random  # repro-lint: disable=RL103\n"
        "import random as rnd\n"
    )
    diagnostics = lint_source(source, path="x.py")
    assert [(d.line, d.code) for d in diagnostics] == [(2, "RL103")]


def test_disable_all_sentinel():
    source = "# repro-lint: disable-file=all\nimport random\n"
    pragmas = Pragmas(source)
    assert pragmas.is_disabled("RL103", 2)
    assert lint_source(source, path="x.py") == []


def test_pragma_inside_string_literal_is_ignored():
    source = 'TEXT = "# repro-lint: disable-file=RL103"\nimport random\n'
    diagnostics = lint_source(source, path="x.py")
    assert [d.code for d in diagnostics] == ["RL103"]


# --- Findings reported inside a multi-line statement -----------------------
#
# RL603 reports at the unordered source, which need not sit on the first
# line of the statement consuming it — the pragma belongs on the reported
# line.  These tests pin that interaction, including the
# trailing-justification regression from the pragma-regex fix (free-form
# text after the code list must not corrupt the code set).

LISTING_SOURCE = (
    "import os\n"
    "def names(path):\n"
    "    return [\n"
    "        name\n"
    "        for name in os.listdir(path){pragma}\n"
    "    ]\n"
)


def test_rl603_fires_without_pragma():
    source = LISTING_SOURCE.format(pragma="")
    diagnostics = lint_source(source, path="x.py")
    assert [(d.line, d.code) for d in diagnostics] == [(5, "RL603")]


def test_rl603_line_pragma_on_reported_line_suppresses():
    source = LISTING_SOURCE.format(pragma="  # repro-lint: disable=RL603")
    assert lint_source(source, path="x.py") == []


def test_rl603_pragma_with_trailing_justification():
    """The justification text must not merge into the code list."""
    source = LISTING_SOURCE.format(
        pragma="  # repro-lint: disable=RL603 listing order is canonical here"
    )
    assert lint_source(source, path="x.py") == []


def test_rl603_pragma_on_statement_line_does_not_suppress():
    """Suppression is per-line: a pragma on the statement's first line
    does not reach a diagnostic reported further down."""
    source = (
        "import os\n"
        "def names(path):\n"
        "    return [  # repro-lint: disable=RL603\n"
        "        name\n"
        "        for name in os.listdir(path)\n"
        "    ]\n"
    )
    diagnostics = lint_source(source, path="x.py")
    assert [(d.line, d.code) for d in diagnostics] == [(5, "RL603")]


STAMPED_SOURCE = (
    "import os\n"
    "import time\n"
    "def stamped(path):\n"
    "    start = time.time(){first}\n"
    "    return [(n, time.time() - start) for n in os.listdir(path)]{second}\n"
)


def test_multi_code_pragma_with_justification():
    """One pragma carrying several codes plus justification text."""
    bare = STAMPED_SOURCE.format(first="", second="")
    assert [(d.line, d.code) for d in lint_source(bare, path="x.py")] == [
        (4, "RL201"),
        (5, "RL201"),
        (5, "RL603"),
    ]
    source = STAMPED_SOURCE.format(
        first="  # repro-lint: disable=RL201 report-only timestamp",
        second="  # repro-lint: disable=RL603, RL201 stamps only reach the report",
    )
    assert lint_source(source, path="x.py") == []


def test_file_pragma_with_justification_leaves_other_codes_active():
    source = (
        "# repro-lint: disable-file=RL603 listing order is canonical here\n"
        "import os\n"
        "import random\n"
        "def names(path):\n"
        "    return [name for name in os.listdir(path)]\n"
    )
    diagnostics = lint_source(source, path="x.py")
    assert [d.code for d in diagnostics] == ["RL103"]


# --- Every rule reports through the pragma filter --------------------------


def _fixtures_reporting(code):
    """(path, source, diagnostics) for each golden fixture that fires ``code``."""
    found = []
    for name in sorted(os.listdir(GOLDEN_DIR)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        diagnostics = lint_source(source, path=path)
        if any(d.code == code for d in diagnostics):
            found.append((path, source, diagnostics))
    return found


@pytest.mark.parametrize("code", rule_codes())
def test_file_pragma_with_justification_silences_only_its_code(code):
    """A trailing ``disable-file`` pragma naming one code, with free-form
    justification, removes that code's findings and keeps every other."""
    fixtures = _fixtures_reporting(code)
    assert fixtures, f"no golden fixture fires {code}"
    for path, source, diagnostics in fixtures:
        pragma = f"# repro-lint: disable-file={code} justified for this check\n"
        suppressed = lint_source(source.rstrip("\n") + "\n" + pragma, path=path)
        assert [(d.line, d.code) for d in suppressed] == [
            (d.line, d.code) for d in diagnostics if d.code != code
        ], os.path.basename(path)
