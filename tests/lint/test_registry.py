"""Rule registry, pragma parsing, and select/ignore expansion."""

import os

import pytest

from repro.lint import active_rules, rule_classes, rule_codes
from repro.lint.pragmas import Pragmas
from repro.lint.registry import SYNTAX_ERROR_CODE, Rule

DOCS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "docs", "static-analysis.md"
)


def test_registry_exposes_at_least_five_domain_rules():
    assert len(rule_codes()) >= 5
    # One code per rule family named in the design.
    for code in (
        "RL101",
        "RL201",
        "RL301",
        "RL401",
        "RL603",
        "RL701",
        "RL802",
    ):
        assert code in rule_codes()


def test_rule_metadata_is_complete():
    for rule_class in rule_classes():
        assert rule_class.code.startswith("RL")
        assert rule_class.name
        assert rule_class.summary
        assert rule_class.rationale
        assert rule_class.default_severity in ("error", "warning")
        assert issubclass(rule_class, Rule)


def test_every_registered_code_is_documented():
    with open(DOCS_PATH, encoding="utf-8") as handle:
        documented = handle.read()
    for code in rule_codes():
        assert code in documented, f"{code} missing from docs/static-analysis.md"


def test_audit_table_has_one_row_per_code():
    """docs/static-analysis.md justifies every code once, and only those."""
    with open(DOCS_PATH, encoding="utf-8") as handle:
        section = handle.read().split("## Why each rule is static", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [
        line.split("|")[1].strip()
        for line in section.splitlines()
        if line.startswith("| RL")
    ]
    assert sorted(rows) == sorted({*rule_codes(), SYNTAX_ERROR_CODE})


def test_codes_are_unique():
    codes = rule_codes()
    assert len(codes) == len(set(codes))


def test_select_by_prefix_expands():
    selected = {type(rule).code for rule in active_rules(select=["RL1"])}
    assert selected == {c for c in rule_codes() if c.startswith("RL1")}


def test_ignore_removes_codes():
    remaining = {type(rule).code for rule in active_rules(ignore=["RL401"])}
    assert "RL401" not in remaining
    assert "RL402" in remaining


def test_unknown_code_raises():
    with pytest.raises(ValueError):
        active_rules(select=["RL999"])
    with pytest.raises(ValueError):
        active_rules(ignore=["BOGUS"])


def test_line_pragma_scopes_to_its_line():
    pragmas = Pragmas("x = 1  # repro-lint: disable=RL101\ny = 2\n")
    assert pragmas.is_disabled("RL101", 1)
    assert not pragmas.is_disabled("RL101", 2)
    assert not pragmas.is_disabled("RL102", 1)


def test_file_pragma_scopes_everywhere():
    pragmas = Pragmas("# repro-lint: disable-file=RL103,RL201\nx = 1\n")
    assert pragmas.is_disabled("RL103", 1)
    assert pragmas.is_disabled("RL201", 99)
    assert not pragmas.is_disabled("RL101", 1)


def test_all_sentinel_disables_everything():
    pragmas = Pragmas("x = 1  # repro-lint: disable=all\n")
    assert pragmas.is_disabled("RL101", 1)
    assert pragmas.is_disabled("RL401", 1)


def test_pragma_inside_string_literal_is_ignored():
    pragmas = Pragmas('text = "# repro-lint: disable=RL101"\n')
    assert not pragmas.is_disabled("RL101", 1)
