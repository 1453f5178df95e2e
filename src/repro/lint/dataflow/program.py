"""Whole-program driver for the RL7xx resource-lifecycle pass.

:func:`analyze_program` is the single entry point the rule layer uses.
It parses every file into a :class:`~.modules.ModuleGraph`, builds the
call graph, and runs the resource analysis (:mod:`.resources`) over
them; the :class:`~.resources.RawFinding` records it returns are final
and keyed by file path.  The runner builds it once per invocation;
per-file rule evaluation replays the findings through the ordinary
diagnostics/pragma pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..context import ModuleContext
from .callgraph import build_call_graph
from .modules import ModuleGraph
from .resources import RawFinding, ResourceSummary, analyze_resources


@dataclass
class ProgramAnalysis:
    """Whole-program results, keyed by file path."""

    #: path → findings sorted by (line, col, code, message).
    findings: Dict[str, Tuple[RawFinding, ...]] = field(default_factory=dict)
    #: qualname → converged resource summary (tests/debugging).
    resource_summaries: Dict[str, ResourceSummary] = field(default_factory=dict)

    def findings_for(
        self, path: str, code: Optional[str] = None
    ) -> Tuple[RawFinding, ...]:
        """Findings recorded against one file, optionally one rule code."""
        hits = self.findings.get(path, ())
        if code is None:
            return hits
        return tuple(hit for hit in hits if hit.code == code)


def analyze_program(
    files: Sequence[Tuple[str, str]],
    contexts: Optional[Dict[str, "ModuleContext"]] = None,
) -> ProgramAnalysis:
    """Analyse ``(path, source)`` pairs as one program.

    ``contexts`` optionally shares already-parsed per-file contexts so
    the runner never parses a file twice per invocation.
    """
    graph = ModuleGraph(files, contexts=contexts)
    per_path, resource_summaries = analyze_resources(graph, build_call_graph(graph))
    findings = {
        path: tuple(
            sorted(set(hits), key=lambda f: (f.line, f.col, f.code, f.message))
        )
        for path, hits in per_path.items()
    }
    return ProgramAnalysis(findings=findings, resource_summaries=resource_summaries)
