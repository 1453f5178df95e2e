"""Whole-program determinism dataflow analysis for ``repro.lint``.

The package layers bottom-up:

``lattice``
    The abstract-value domain (RNG lineage, order taint, entropy,
    parameter lineage) with monotone join/transfer helpers.
``summaries``
    Inter-procedural function summaries plus hand-written models of the
    external RNG surface (``numpy.random``, ``repro.rng``, engine seed
    helpers).
``modules``
    Per-file symbol tables and cross-module name resolution
    (re-export-chasing) over the analysed file set.
``callgraph``
    Statically resolvable call edges and a callees-first order.
``intra``
    The abstract interpreter over one function body: produces a
    summary and the RL6xx raw findings.
``cfg``
    Statement-level control-flow graphs with exception and
    ``try/finally``/``with`` edges (the RL7xx substrate).
``resources``
    The resource-lifecycle interpreter over the CFG: acquisition-state
    lattice, ownership-transfer summaries, and the RL701–RL704
    detectors.
``program``
    The driver: summary fixpoint over the call graph (determinism and
    resource passes), then a reporting pass; results are picklable for
    the ``--jobs N`` runner.
"""

from .cfg import ControlFlowGraph, build_cfg
from .intra import RawFinding, analyze_function
from .lattice import (
    EntropyTag,
    OrderTag,
    ParamTag,
    RngTag,
    UnorderedTag,
    Value,
)
from .program import ProgramAnalysis, analyze_program
from .resources import ResourceSummary, analyze_resources
from .summaries import BUILTIN_SUMMARIES, FunctionSummary

__all__ = [
    "BUILTIN_SUMMARIES",
    "ControlFlowGraph",
    "EntropyTag",
    "FunctionSummary",
    "OrderTag",
    "ParamTag",
    "ProgramAnalysis",
    "RawFinding",
    "ResourceSummary",
    "RngTag",
    "UnorderedTag",
    "Value",
    "analyze_function",
    "analyze_program",
    "analyze_resources",
    "build_cfg",
]
