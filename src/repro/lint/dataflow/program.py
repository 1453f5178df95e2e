"""Whole-program driver: summaries fixpoint + RL6xx finding collection.

:func:`analyze_program` is the single entry point the rule layer uses.
It parses every file into a :class:`~.modules.ModuleGraph`, builds the
call graph, then runs a worklist fixpoint of the intra-procedural
interpreter: the first wave analyses every function (callees first),
and afterwards only the callers of a function whose
:class:`~.summaries.FunctionSummary` grew are re-analysed.  Each
function's *last* analysis saw its callees' converged summaries, so its
:class:`~.intra.RawFinding` records are final — keyed by file path.

The resulting :class:`ProgramAnalysis` is deliberately a bag of
picklable primitives: the ``--jobs N`` runner computes it once in the
parent process and ships it to workers, where per-file rule evaluation
replays the findings through the ordinary diagnostics/pragma pipeline.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..context import ModuleContext, dotted_name
from .callgraph import build_call_graph
from .intra import ENGINE_SINKS, RawFinding, analyze_function
from .modules import ModuleGraph, ModuleInfo
from .resources import ResourceSummary, analyze_resources
from .summaries import FunctionSummary, builtin_summary, merge_summaries

#: Upper bound on summary-fixpoint rounds.  The lattice is finite and
#: all transfer functions monotone, so this is a safety valve against
#: pathological alias cycles, not a correctness requirement.
MAX_FIXPOINT_ROUNDS = 5


def _kernel_names(info: ModuleInfo) -> Set[str]:
    """Module-level functions dispatched *by name* into an engine sink.

    Mirrors the RL301 notion of a cached kernel: a function object that
    crosses the process boundary via ``map_tasks``/``_dispatch`` and
    whose results may be memoised by the acceptance cache.
    """
    names: Set[str] = set()
    module_functions = set(info.functions)
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        raw = dotted_name(node.func)
        if raw is None or raw.split(".")[-1] not in ENGINE_SINKS:
            continue
        for arg in node.args:
            if isinstance(arg, ast.Name) and arg.id in module_functions:
                names.add(arg.id)
    return names


@dataclass
class ProgramAnalysis:
    """Whole-program results, keyed by file path.

    Only primitives live here (strings, ints, frozen dataclasses), so a
    built instance can be pickled to worker processes unchanged.
    """

    #: path → findings sorted by (line, col, code, message).
    findings: Dict[str, Tuple[RawFinding, ...]] = field(default_factory=dict)
    #: qualname → converged summary (exposed for tests/debugging).
    summaries: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: qualnames treated as cached engine kernels (RL604 scope).
    kernels: Tuple[str, ...] = ()
    #: qualname → converged resource summary (RL7xx; tests/debugging).
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
    call_graph = build_call_graph(graph)
    summaries: Dict[str, FunctionSummary] = {}

    def lookup(name: str) -> Optional[FunctionSummary]:
        # Hand-written models win (see summaries.BUILTIN_SUMMARIES).
        builtin = builtin_summary(name)
        if builtin is not None:
            return builtin
        if name in summaries:
            return summaries[name]
        resolved = graph.resolve_function(name)
        if resolved is not None:
            return summaries.get(resolved[0])
        return None

    kernels: Set[str] = set()
    for info in graph.by_path.values():
        for name in _kernel_names(info):
            kernels.add(f"{info.module_name}.{name}")

    order = call_graph.processing_order()

    def run(qualname: str):
        info, node = call_graph.functions[qualname]
        cls = graph.class_for_method(info, node)
        return info, analyze_function(
            info,
            node,
            qualname=qualname,
            cls=cls,
            lookup=lookup,
            is_kernel=qualname in kernels,
        )

    # Worklist fixpoint: the first wave analyses everything (callees
    # first); afterwards only the callers of a function whose summary
    # grew are re-analysed.  Summaries only grow (monotone join over a
    # finite lattice), so a function's *last* analysis always saw the
    # final summary of every callee and its findings are the final ones.
    callers: Dict[str, Set[str]] = {}
    for caller, callees in call_graph.edges.items():
        for callee in callees:
            callers.setdefault(callee, set()).add(caller)
    position = {qualname: index for index, qualname in enumerate(order)}
    attempts: Dict[str, int] = {}
    max_attempts = MAX_FIXPOINT_ROUNDS * 2
    last: Dict[str, Tuple[ModuleInfo, Tuple[RawFinding, ...]]] = {}

    wave = list(order)
    while wave:
        next_wave: Set[str] = set()
        for qualname in wave:
            if attempts.get(qualname, 0) >= max_attempts:
                continue  # safety valve against pathological cycles
            attempts[qualname] = attempts.get(qualname, 0) + 1
            info, analysis = run(qualname)
            last[qualname] = (info, analysis.findings)
            old = summaries.get(qualname)
            if old is None:
                summaries[qualname] = analysis.summary
                changed = bool(
                    analysis.summary.return_tags or analysis.summary.passthrough
                )
            else:
                merged, changed = merge_summaries(old, analysis.summary)
                summaries[qualname] = merged
            if changed:
                next_wave.update(callers.get(qualname, ()))
        wave = sorted(next_wave, key=lambda name: position.get(name, 0))

    per_path: Dict[str, List[RawFinding]] = {}
    for qualname in order:
        entry = last.get(qualname)
        if entry is not None and entry[1]:
            per_path.setdefault(entry[0].path, []).extend(entry[1])

    # Second engine over the same module/call graphs: the RL7xx
    # resource-lifecycle pass (its own CFG-based interpreter and summary
    # worklist; see .resources).
    resource_findings, resource_summaries = analyze_resources(graph, call_graph)
    for path, hits in resource_findings.items():
        per_path.setdefault(path, []).extend(hits)

    findings = {
        path: tuple(
            sorted(set(hits), key=lambda f: (f.line, f.col, f.code, f.message))
        )
        for path, hits in per_path.items()
    }
    return ProgramAnalysis(
        findings=findings,
        summaries=summaries,
        kernels=tuple(sorted(kernels)),
        resource_summaries=resource_summaries,
    )
