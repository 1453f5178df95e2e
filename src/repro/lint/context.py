"""Per-file analysis context shared by every lint rule.

A :class:`ModuleContext` owns the parsed AST, the import-alias table used
to resolve dotted call names to canonical module paths (``np.random.
default_rng`` → ``numpy.random.default_rng``), the pragma suppression
state, and the extracted doctest blocks — so each rule stays a small pure
function over shared, parsed-once structure.

Path scoping
------------
Rules scope themselves by *module path*: the ``repro/...``-relative posix
path of the file (``repro/lowerbounds/theorems.py``).  It is derived from
the real filesystem path when the file lives under a ``repro`` package
directory; synthetic sources (golden test fixtures) can override it with
a ``# lint-path: src/repro/...`` marker comment in the first few lines.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .pragmas import Pragmas

#: Marker comment overriding the derived module path (golden fixtures).
_LINT_PATH_RE = re.compile(r"#\s*lint-path:\s*(?P<path>\S+)")

#: How many leading lines are searched for a ``# lint-path:`` marker.
_MARKER_SEARCH_LINES = 10

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
DocstringOwner = Union[ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef]

_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def dotted_name(node: ast.AST) -> Optional[str]:
    """The ``a.b.c`` dotted name of an attribute chain, or ``None``.

    Only plain ``Name``-rooted chains resolve; anything rooted in a call,
    subscript or literal is dynamic and returns ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def derive_module_path(path: str, source: str) -> str:
    """The ``repro/...`` module path used for rule scoping.

    Preference order: an explicit ``# lint-path:`` marker, the trailing
    ``repro/...`` portion of the real path, then the bare filename.
    """
    for line in source.splitlines()[:_MARKER_SEARCH_LINES]:
        match = _LINT_PATH_RE.search(line)
        if match is not None:
            return _normalise(match.group("path"))
    return _normalise(path)


def _normalise(path: str) -> str:
    posix = path.replace("\\", "/")
    marker = "/repro/"
    if posix.startswith("repro/"):
        return posix
    index = posix.rfind(marker)
    if index >= 0:
        return posix[index + 1:]
    return posix.rsplit("/", 1)[-1]


def _import_aliases(
    tree: ast.AST, package_parts: Optional[List[str]] = None
) -> Dict[str, str]:
    """Map local names to the canonical dotted path they were bound from."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                # ``import a.b`` binds only the root name ``a`` → itself.
        elif isinstance(node, ast.ImportFrom):
            base = _import_from_base(node, package_parts)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{base}.{alias.name}" if base else alias.name
    return aliases


def _import_from_base(
    node: ast.ImportFrom, package_parts: Optional[List[str]]
) -> Optional[str]:
    if node.level == 0:
        return node.module or ""
    if not package_parts:
        return None
    strip = node.level - 1
    if strip > len(package_parts):
        return None
    base_parts = package_parts[: len(package_parts) - strip]
    if node.module:
        base_parts = base_parts + node.module.split(".")
    return ".".join(base_parts) if base_parts else None


@dataclass
class DoctestBlock:
    """One parsed ``>>>`` example inside a docstring.

    ``line_offset`` converts the block's internal (1-based) line numbers
    to file line numbers: ``file_line = line_offset + node.lineno``.
    """

    tree: ast.Module
    line_offset: int
    aliases: Dict[str, str] = field(default_factory=dict)

    def resolve(self, name: Optional[str]) -> Optional[str]:
        return _resolve_with(self.aliases, name)


def _resolve_with(aliases: Dict[str, str], name: Optional[str]) -> Optional[str]:
    if name is None:
        return None
    head, _, rest = name.partition(".")
    canonical = aliases.get(head)
    if canonical is None:
        return name
    return f"{canonical}.{rest}" if rest else canonical


class ModuleContext:
    """Everything a rule needs to know about one source file."""

    def __init__(self, source: str, path: str, module_path: Optional[str] = None):
        self.source = source
        self.path = path
        self.module_path = module_path or derive_module_path(path, source)
        self.tree = ast.parse(source)
        self.pragmas = Pragmas(source)
        self._package_parts = self._derive_package_parts()
        self.aliases = _import_aliases(self.tree, self._package_parts)
        self._doctests: Optional[List[DoctestBlock]] = None

    # ------------------------------------------------------------------ #
    # scoping                                                            #
    # ------------------------------------------------------------------ #

    def _derive_package_parts(self) -> List[str]:
        parts = self.module_path.split("/")
        if parts and parts[-1].endswith(".py"):
            parts = parts[:-1]
        return [part for part in parts if part]

    def in_package(self, prefix: str) -> bool:
        """Whether the file lives under a ``repro/...`` package prefix."""
        prefix = prefix.rstrip("/")
        return self.module_path == prefix or self.module_path.startswith(prefix + "/")

    def is_module(self, *module_paths: str) -> bool:
        """Whether the file *is* one of the named ``repro/...`` modules."""
        return self.module_path in module_paths

    # ------------------------------------------------------------------ #
    # name resolution                                                    #
    # ------------------------------------------------------------------ #

    def resolve(self, name: Optional[str]) -> Optional[str]:
        """Canonicalise a dotted name through the module's import aliases."""
        return _resolve_with(self.aliases, name)

    def call_name(self, call: ast.Call) -> Optional[str]:
        """The canonical dotted name a call targets, or ``None`` if dynamic."""
        return self.resolve(dotted_name(call.func))

    # ------------------------------------------------------------------ #
    # docstrings and doctests                                            #
    # ------------------------------------------------------------------ #

    def docstring_owners(self) -> Iterator[Tuple[DocstringOwner, str, int]]:
        """Yield ``(node, docstring, first_line)`` for every docstring.

        ``first_line`` is the source line of the docstring literal itself
        (the line anchors within the docstring are measured from).
        """
        for node in ast.walk(self.tree):
            if not isinstance(node, _DOCSTRING_OWNERS):
                continue
            docstring = ast.get_docstring(node, clean=False)
            if docstring is None:
                continue
            literal = node.body[0]
            yield node, docstring, literal.lineno

    def doctest_blocks(self) -> List[DoctestBlock]:
        """Parsed ``>>>`` examples from every docstring in the file.

        Examples within one docstring share a namespace, so their import
        aliases accumulate across the docstring (seeded with the module's
        own aliases — doctests execute against module globals).
        """
        if self._doctests is not None:
            return self._doctests
        import doctest  # ~50 ms of imports that --list-rules and warm runs skip

        parser = doctest.DocTestParser()
        blocks: List[DoctestBlock] = []
        for _node, docstring, first_line in self.docstring_owners():
            examples = parser.get_examples(docstring)
            if not examples:
                continue
            parsed: List[Tuple[ast.Module, int]] = []
            scope_aliases = dict(self.aliases)
            for example in examples:
                try:
                    tree = ast.parse(example.source)
                except SyntaxError:
                    continue
                scope_aliases.update(_import_aliases(tree, self._package_parts))
                # ``example.lineno`` is 0-based within the docstring, whose
                # first content line is ``first_line`` itself; the parsed
                # example tree's own linenos are 1-based, hence the -1.
                parsed.append((tree, first_line + example.lineno - 1))
            for tree, offset in parsed:
                blocks.append(
                    DoctestBlock(tree=tree, line_offset=offset, aliases=scope_aliases)
                )
        self._doctests = blocks
        return blocks

    # ------------------------------------------------------------------ #
    # structure helpers                                                  #
    # ------------------------------------------------------------------ #

    def functions(self) -> Iterator[FunctionNode]:
        """Every function definition in the file, at any nesting depth."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def module_level_functions(self) -> Dict[str, FunctionNode]:
        """Top-level function definitions by name."""
        return {
            stmt.name: stmt
            for stmt in self.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
