"""Whole-program resource-lifecycle analysis for ``repro.lint`` (RL7xx).

The package layers bottom-up:

``modules``
    Per-file symbol tables and cross-module name resolution
    (re-export-chasing) over the analysed file set.
``callgraph``
    Statically resolvable call edges and a callees-first order.
``cfg``
    Statement-level control-flow graphs with exception and
    ``try/finally``/``with`` edges.
``resources``
    The resource-lifecycle interpreter over the CFG: acquisition-state
    lattice, ownership-transfer summaries, and the RL701–RL704
    detectors.
``program``
    The driver: module graph, call graph, then the resource pass.
"""

from .cfg import ControlFlowGraph, build_cfg
from .program import ProgramAnalysis, analyze_program
from .resources import RawFinding, ResourceSummary, analyze_resources

__all__ = [
    "ControlFlowGraph",
    "ProgramAnalysis",
    "RawFinding",
    "ResourceSummary",
    "analyze_program",
    "analyze_resources",
    "build_cfg",
]
