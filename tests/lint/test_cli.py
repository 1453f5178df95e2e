"""CLI behaviour: exit codes, formats, and the module entry point."""

import json
import os
import subprocess
import sys

import pytest

from repro.lint.cli import EXIT_CLEAN, EXIT_USAGE, EXIT_VIOLATIONS, main
from repro.lint import rule_codes

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

CLEAN_SOURCE = '"""A module with nothing to report."""\n\nVALUE = 3\n'
DIRTY_SOURCE = "import random\n"


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return str(path)


def test_exit_clean(tmp_path, capsys):
    path = _write(tmp_path, "clean.py", CLEAN_SOURCE)
    assert main([path]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "0 issues in 1 file(s) scanned" in out


def test_exit_violations_with_located_diagnostic(tmp_path, capsys):
    path = _write(tmp_path, "dirty.py", DIRTY_SOURCE)
    assert main([path]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert f"{path}:1:0: RL103" in out
    assert "1 issue in 1 file(s) scanned" in out


def test_exit_usage_on_missing_path(tmp_path, capsys):
    assert main([str(tmp_path / "no-such-dir")]) == EXIT_USAGE
    assert "does not exist" in capsys.readouterr().err


def test_exit_usage_on_unknown_rule_code(tmp_path, capsys):
    path = _write(tmp_path, "clean.py", CLEAN_SOURCE)
    assert main([path, "--select", "RL999"]) == EXIT_USAGE
    assert "RL999" in capsys.readouterr().err


def test_select_and_ignore_scope_the_run(tmp_path):
    path = _write(tmp_path, "dirty.py", DIRTY_SOURCE)
    assert main([path, "--select", "RL2"]) == EXIT_CLEAN
    assert main([path, "--ignore", "RL103"]) == EXIT_CLEAN
    assert main([path, "--select", "RL1"]) == EXIT_VIOLATIONS


def test_json_format(tmp_path, capsys):
    path = _write(tmp_path, "dirty.py", DIRTY_SOURCE)
    assert main([path, "--format", "json"]) == EXIT_VIOLATIONS
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["code"] == "RL103"
    assert payload[0]["line"] == 1
    assert payload[0]["path"] == path


def test_list_rules_covers_every_code(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for code in rule_codes():
        if code == "RL001":  # runner-reserved, not a listed rule
            continue
        assert code in out


def test_list_rules_shows_default_severity(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "RL303  engine-perf [warning]:" in out
    assert "RL802  platform-dependent-dtype [error]:" in out


def _run_module(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def test_python_dash_m_repro_lint_on_golden_fixture():
    dirty = os.path.join(GOLDEN_DIR, "rng_violations.py")
    result = _run_module(["-m", "repro.lint", dirty])
    assert result.returncode == EXIT_VIOLATIONS
    assert "RL101" in result.stdout


def test_shipped_tree_is_lint_clean():
    """The meta-gate: ``python -m repro.lint src`` must exit 0."""
    result = _run_module(["-m", "repro.lint", "src"])
    assert result.returncode == EXIT_CLEAN, result.stdout + result.stderr
    assert "0 issues" in result.stdout


def test_github_format_emits_error_annotations(tmp_path, capsys):
    path = _write(tmp_path, "dirty.py", DIRTY_SOURCE)
    assert main([path, "--format", "github"]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert out.startswith(f"::error file={path},line=1,col=1,title=RL103::")
    assert "RL103" in out


def test_github_format_escapes_workflow_command_metacharacters():
    from repro.lint.diagnostics import Diagnostic

    diagnostic = Diagnostic(
        path="a,b.py", line=3, col=0, code="RL101", message="first%\nsecond"
    )
    rendered = diagnostic.format_github()
    assert rendered == (
        "::error file=a%2Cb.py,line=3,col=1,title=RL101::RL101 first%25%0Asecond"
    )


def test_ignore_beats_select(tmp_path):
    """Precedence: --select narrows the set, then --ignore removes."""
    path = _write(tmp_path, "dirty.py", DIRTY_SOURCE)
    assert main([path, "--select", "RL1", "--ignore", "RL103"]) == EXIT_CLEAN
    assert main([path, "--select", "RL103", "--ignore", "RL103"]) == EXIT_CLEAN


@pytest.mark.parametrize(
    "options", [["--jobs", "2"], ["--format", "sarif"]], ids=["jobs", "sarif"]
)
def test_removed_options_are_usage_errors(tmp_path, options, capsys):
    path = _write(tmp_path, "clean.py", CLEAN_SOURCE)
    with pytest.raises(SystemExit) as raised:
        main([path, *options])
    assert raised.value.code == EXIT_USAGE
    assert options[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "options", [[], ["--no-cache"]], ids=["cache", "no-cache"]
)
def test_stats_leave_stdout_unchanged(tmp_path, options, capsys):
    path = _write(tmp_path, "dirty.py", DIRTY_SOURCE)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main([path, *cache, *options]) == EXIT_VIOLATIONS
    plain = capsys.readouterr()
    assert main([path, *cache, *options, "--stats"]) == EXIT_VIOLATIONS
    with_stats = capsys.readouterr()
    assert with_stats.out == plain.out
    assert plain.err == ""
    assert with_stats.err.startswith("repro.lint: cache ")


def _text_findings(out):
    rows = []
    for line in out.splitlines():
        if line.startswith("repro.lint: "):
            continue
        location, rest = line.split(": ", 1)
        path, row, col = location.rsplit(":", 2)
        rows.append((path, int(row), int(col), rest.split()[0]))
    return sorted(rows)


def _json_findings(out):
    return sorted(
        (item["path"], item["line"], item["col"], item["code"])
        for item in json.loads(out)
    )


def _github_findings(out):
    rows = []
    for line in out.splitlines():
        head = line[len("::error "):].split("::", 1)[0]
        fields = dict(part.split("=", 1) for part in head.split(","))
        rows.append(
            (fields["file"], int(fields["line"]), int(fields["col"]) - 1, fields["title"])
        )
    return sorted(rows)


@pytest.mark.parametrize(
    "fmt, parse", [("json", _json_findings), ("github", _github_findings)]
)
def test_every_format_reports_the_same_findings(fmt, parse, capsys):
    """One golden-directory run, rendered three ways, names one finding set."""
    assert main([GOLDEN_DIR, "--no-cache"]) == EXIT_VIOLATIONS
    text = _text_findings(capsys.readouterr().out)
    assert main([GOLDEN_DIR, "--no-cache", "--format", fmt]) == EXIT_VIOLATIONS
    assert parse(capsys.readouterr().out) == text
    assert len(text) > 20


def test_repro_cli_has_no_lint_subcommand(capsys):
    """The linter has one entry point, ``python -m repro.lint``."""
    from repro.cli import main as repro_main

    with pytest.raises(SystemExit) as raised:
        repro_main(["lint", "src"])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "lint" in err
