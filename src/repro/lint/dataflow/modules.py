"""Whole-program module graph: files, symbols, and name resolution.

The per-file :class:`~repro.lint.context.ModuleContext` canonicalises
names through *its own* import table; this module adds the cross-file
step: given the canonical dotted name a call site resolves to
(``repro.network.aggregation.convergecast_sum``, or a re-export like
``repro.ensure_rng``), find the actual function definition it lands on,
chasing ``from x import y`` re-export chains through intermediate
packages.

Alongside symbols, each module records its classes' method tables, so
``self.method(...)`` calls and ``module.Class.method`` names resolve.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..context import FunctionNode, ModuleContext


@dataclass
class ClassInfo:
    """One class definition and its method table."""

    name: str
    qualname: str
    node: ast.ClassDef
    methods: Dict[str, FunctionNode] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One analysed source file and its symbol tables."""

    path: str
    module_name: str
    ctx: ModuleContext
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def tree(self) -> ast.Module:
        return self.ctx.tree


def module_name_from_path(module_path: str) -> str:
    """``repro/network/aggregation.py`` → ``repro.network.aggregation``."""
    parts = module_path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        last = parts[-1][: -len(".py")]
        parts = parts[:-1] if last == "__init__" else parts[:-1] + [last]
    return ".".join(part for part in parts if part)


def _collect_class(info: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    cls = ClassInfo(
        name=node.name,
        qualname=f"{info.module_name}.{node.name}",
        node=node,
    )
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[stmt.name] = stmt
    return cls


def build_module_info(
    path: str, source: str, ctx: Optional[ModuleContext] = None
) -> Optional[ModuleInfo]:
    """Parse one file into a :class:`ModuleInfo` (``None`` if unparsable).

    ``ctx`` lets the caller share an already-parsed context (the runner
    parses every file once and reuses it for rule evaluation).
    """
    if ctx is None:
        try:
            ctx = ModuleContext(source, path)
        except SyntaxError:
            return None
    info = ModuleInfo(
        path=path,
        module_name=module_name_from_path(ctx.module_path),
        ctx=ctx,
    )
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            info.classes[stmt.name] = _collect_class(info, stmt)
    return info


class ModuleGraph:
    """All analysed modules plus cross-module symbol resolution."""

    def __init__(
        self,
        files: Sequence[Tuple[str, str]],
        contexts: Optional[Dict[str, ModuleContext]] = None,
    ):
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        for path, source in files:
            ctx = contexts.get(path) if contexts else None
            info = build_module_info(path, source, ctx=ctx)
            if info is None:
                continue
            self.by_path[path] = info
            # First definition wins on module-name collisions (fixtures
            # deliberately reuse repro/... lint-paths; each file is still
            # reachable through ``by_path``).
            self.modules.setdefault(info.module_name, info)

    # ------------------------------------------------------------------ #
    # symbol resolution                                                  #
    # ------------------------------------------------------------------ #

    def _split_module(self, name: str) -> Tuple[Optional[ModuleInfo], List[str]]:
        """Longest known-module prefix of ``name`` plus the remainder."""
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            info = self.modules.get(prefix)
            if info is not None:
                return info, parts[cut:]
        return None, parts

    def resolve_function(
        self, canonical: Optional[str], _depth: int = 0
    ) -> Optional[Tuple[str, ModuleInfo, FunctionNode]]:
        """Find the definition a canonical dotted name refers to.

        Returns ``(qualified_name, module, node)`` — for module-level
        functions and for methods addressed as ``module.Class.method``.
        Re-export chains (``from .executor import chunked_accepts`` in a
        package ``__init__``) are chased up to a small fixed depth.
        """
        if canonical is None or _depth > 8:
            return None
        info, rest = self._split_module(canonical)
        if info is None:
            return None
        if not rest:
            return None
        head = rest[0]
        if len(rest) == 1 and head in info.functions:
            return (
                f"{info.module_name}.{head}",
                info,
                info.functions[head],
            )
        if head in info.classes:
            cls = info.classes[head]
            if len(rest) == 2 and rest[1] in cls.methods:
                return (
                    f"{cls.qualname}.{rest[1]}",
                    info,
                    cls.methods[rest[1]],
                )
            return None
        # A re-exported name: chase the import alias recorded in the
        # intermediate module's own alias table.
        target = info.ctx.aliases.get(head)
        if target is not None:
            chased = target if len(rest) == 1 else ".".join([target] + rest[1:])
            if chased != canonical:
                return self.resolve_function(chased, _depth + 1)
        return None

    def class_for_method(self, module: ModuleInfo, function: FunctionNode) -> Optional[ClassInfo]:
        """The class a function node is a method of, if any."""
        for cls in module.classes.values():
            if function.name in cls.methods and cls.methods[function.name] is function:
                return cls
        return None
