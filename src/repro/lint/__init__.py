"""Static-analysis gate for the determinism & citation contracts.

An AST-based linter enforcing the discipline the Monte Carlo engine's
cache replay and serial-vs-parallel equivalence depend on: explicit
``SeedSequence``/``Generator`` threading, no wall-clock reads in
computation paths, pure cacheable kernels, paper-anchored docstrings in
the lemma/theorem packages, resource release on every path, and
platform-independent kernel dtypes.

Run it with ``python -m repro.lint src``; suppress a finding with
``# repro-lint: disable=<code>``.  The rule catalog lives in
``docs/static-analysis.md``.
"""

from .anchors import VALID_ANCHORS, find_anchors, is_valid_anchor
from .context import ModuleContext
from .diagnostics import Diagnostic
from .registry import Rule, active_rules, register_rule, rule_classes, rule_codes
from .runner import LintUsageError, iter_python_files, lint_paths, lint_source

__all__ = [
    "Diagnostic",
    "LintUsageError",
    "ModuleContext",
    "Rule",
    "VALID_ANCHORS",
    "active_rules",
    "find_anchors",
    "is_valid_anchor",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register_rule",
    "rule_classes",
    "rule_codes",
]
