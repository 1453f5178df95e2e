"""Call graph over the resolved program and a bottom-up analysis order.

Summaries compose best when a callee is summarised before its callers,
so the fixpoint loop in :mod:`.resources` walks functions in reverse
call-dependency order (callees first).  Recursion and dynamic dispatch
make the graph cyclic/incomplete in general; the ordering is therefore a
heuristic that shortens the fixpoint, not a correctness requirement —
the driver keeps iterating until summaries stop changing regardless.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..context import FunctionNode, dotted_name
from .modules import ModuleGraph, ModuleInfo


@dataclass
class CallGraph:
    """Edges ``caller qualname → callee qualnames`` over resolved calls."""

    #: Every analysable function: qualname → (module, node).
    functions: Dict[str, Tuple[ModuleInfo, FunctionNode]] = field(
        default_factory=dict
    )
    edges: Dict[str, Set[str]] = field(default_factory=dict)

    def processing_order(self) -> List[str]:
        """Callees-first DFS post-order (cycles broken arbitrarily)."""
        order: List[str] = []
        seen: Set[str] = set()

        def visit(name: str, stack: Set[str]) -> None:
            if name in seen or name in stack:
                return
            stack.add(name)
            for callee in sorted(self.edges.get(name, ())):
                if callee in self.functions:
                    visit(callee, stack)
            stack.discard(name)
            seen.add(name)
            order.append(name)

        for name in sorted(self.functions):
            visit(name, set())
        return order


def _callee_names(
    graph: ModuleGraph, module: ModuleInfo, function: FunctionNode
) -> Set[str]:
    """Qualified names of statically resolvable callees of ``function``."""
    callees: Set[str] = set()
    cls = graph.class_for_method(module, function)
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        raw = dotted_name(node.func)
        if raw is None:
            continue
        if raw.startswith("self.") and cls is not None:
            parts = raw.split(".")
            if len(parts) == 2 and parts[1] in cls.methods:
                callees.add(f"{cls.qualname}.{parts[1]}")
            continue
        head = raw.split(".")[0]
        if head in module.functions or head in module.classes:
            # Bare same-module reference (``helper(...)``): the import
            # table can't qualify it, but the defining module can.
            canonical = f"{module.module_name}.{raw}"
        else:
            canonical = module.ctx.resolve(raw)
        resolved = graph.resolve_function(canonical)
        if resolved is not None:
            callees.add(resolved[0])
    return callees


def build_call_graph(graph: ModuleGraph) -> CallGraph:
    """Collect every module-level function and method plus its call edges."""
    cg = CallGraph()
    for info in graph.by_path.values():
        for name, node in info.functions.items():
            cg.functions[f"{info.module_name}.{name}"] = (info, node)
        for cls in info.classes.values():
            for method_name, method in cls.methods.items():
                cg.functions[f"{cls.qualname}.{method_name}"] = (info, method)
    for qualname, (info, node) in cg.functions.items():
        cg.edges[qualname] = _callee_names(graph, info, node)
    return cg
