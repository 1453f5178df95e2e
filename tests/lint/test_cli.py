"""CLI behaviour: exit codes, formats, and the module entry points."""

import json
import os
import subprocess
import sys

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


def test_main_cli_lint_subcommand_forwards_arguments():
    result = _run_module(["-m", "repro", "lint", "--list-rules"])
    assert result.returncode == EXIT_CLEAN
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


def test_jobs_zero_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "clean.py", CLEAN_SOURCE)
    assert main([path, "--jobs", "0"]) == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err


def test_jobs_output_byte_identical_to_serial(tmp_path, capsys):
    for index in range(6):
        _write(tmp_path, f"dirty_{index}.py", DIRTY_SOURCE)
    _write(tmp_path, "clean.py", CLEAN_SOURCE)
    main([str(tmp_path)])
    serial = capsys.readouterr().out
    main([str(tmp_path), "--jobs", "2"])
    parallel = capsys.readouterr().out
    assert parallel == serial


def test_jobs_agrees_on_dataflow_rules():
    """RL6xx findings survive the worker-pickling round trip."""
    dirty = os.path.join(GOLDEN_DIR, "streams_violations.py")
    serial = _run_module(["-m", "repro.lint", dirty])
    parallel = _run_module(["-m", "repro.lint", "--jobs", "2", dirty])
    assert serial.returncode == EXIT_VIOLATIONS
    assert parallel.stdout == serial.stdout
    assert "RL601" in serial.stdout
