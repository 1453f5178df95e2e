"""Tests for the EXPERIMENTS.md report generator."""

from __future__ import annotations

import io

from repro.experiments.records import ExperimentResult
from repro.experiments.report import PAPER_CLAIMS, generate_report, render_markdown
from repro.experiments.registry import experiment_ids


class TestClaims:
    def test_every_experiment_has_a_claim(self):
        missing = [eid for eid in experiment_ids() if eid not in PAPER_CLAIMS]
        # e13-e17 are library extensions; claims optional but preferred.
        assert not [m for m in missing if m <= "e12"], missing


class TestRenderMarkdown:
    def test_structure(self):
        result = ExperimentResult("e01", "demo title")
        result.add_row(n=8, q_star=4)
        result.summary["exponent"] = 0.5
        result.notes.append("a note")
        text = render_markdown([result], scale="small")
        assert "# EXPERIMENTS" in text
        assert "## E01 — demo title" in text
        assert "exponent: **0.5**" in text
        assert "full table" in text
        assert "*Note: a note*" in text

    def test_no_rows_no_details_block(self):
        result = ExperimentResult("e02", "empty")
        text = render_markdown([result], scale="small")
        assert "<details>" not in text


class TestGenerateReport:
    def test_subset_run(self):
        log = io.StringIO()
        text = generate_report(scale="small", only=["e10", "e11"], log=log)
        assert "## E10" in text
        assert "## E11" in text
        assert "## E01" not in text
        assert "e10 finished" in log.getvalue()
