"""Rule base class and the per-code rule registry.

Every rule is a class with a unique ``code`` (``RLxyz``: ``x`` names the
rule family, ``yz`` the rule), registered at import time with
:func:`register_rule`.  The runner instantiates the active subset once
per invocation and feeds each instance every :class:`ModuleContext`.

Code families
-------------
* ``RL1xx`` — RNG discipline (explicit seed threading)
* ``RL2xx`` — wall-clock / determinism
* ``RL3xx`` — cache purity
* ``RL4xx`` — paper-anchor citations
* ``RL6xx`` — iteration over unordered sources (sets, directory listings)
* ``RL7xx`` — whole-program resource lifecycle and fork safety
* ``RL8xx`` — kernel dtype hazards
* ``RL001`` — reserved: file could not be parsed (emitted by the runner)
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional, Sequence, Type

from .context import ModuleContext
from .diagnostics import Diagnostic

#: Runner-reserved code for unparsable files (not a registered rule).
SYNTAX_ERROR_CODE = "RL001"


class Rule(ABC):
    """One lint rule: a pure check from module context to diagnostics."""

    #: Unique rule code (``RL101``, ...).
    code: str = ""
    #: Short kebab-case rule name used in ``--list-rules`` output.
    name: str = ""
    #: One-line description of what the rule flags.
    summary: str = ""
    #: Default severity shown in ``--list-rules`` ("error" or
    #: "warning"); advisory only — it never changes the exit code.
    default_severity: str = "error"
    #: Why violating the rule breaks the determinism/cache/citation contract.
    rationale: str = ""
    #: Whether the rule consumes whole-program dataflow results
    #: (``ctx.program``); the runner builds the shared
    #: :class:`~repro.lint.dataflow.ProgramAnalysis` once per invocation
    #: iff at least one active rule sets this.
    requires_program: bool = False

    @abstractmethod
    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        """Yield every violation found in ``ctx``."""

    def diag(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        message: str,
        line_offset: int = 0,
    ) -> Diagnostic:
        """Build a diagnostic located at ``node`` (offset for doctests)."""
        return Diagnostic(
            path=ctx.path,
            line=line_offset + getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (codes must be unique)."""
    code = rule_class.code
    if not code:
        raise ValueError(f"rule {rule_class.__name__} has no code")
    existing = _REGISTRY.get(code)
    if existing is not None and existing is not rule_class:
        raise ValueError(f"duplicate rule code {code}: {existing.__name__}")
    _REGISTRY[code] = rule_class
    return rule_class


def _load_builtin_rules() -> None:
    from . import rules  # noqa: F401  (import registers the built-in rules)


def rule_classes() -> List[Type[Rule]]:
    """Every registered rule class, sorted by code."""
    _load_builtin_rules()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def rule_codes() -> List[str]:
    """Every registered rule code, sorted."""
    _load_builtin_rules()
    return sorted(_REGISTRY)


def active_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Instantiate the rules enabled by ``--select`` / ``--ignore``.

    ``select``/``ignore`` entries are codes or code prefixes (``RL1``
    enables/disables the whole RNG family).  Unknown entries raise
    ``ValueError`` so typos fail loudly instead of silently linting less.
    """
    _load_builtin_rules()
    known = sorted(_REGISTRY)

    def expand(entries: Sequence[str], flag: str) -> List[str]:
        expanded: List[str] = []
        for entry in entries:
            matches = [code for code in known if code.startswith(entry.upper())]
            if not matches:
                raise ValueError(f"{flag}: unknown rule code or prefix {entry!r}")
            expanded.extend(matches)
        return expanded

    chosen = expand(select, "--select") if select else list(known)
    dropped = set(expand(ignore, "--ignore")) if ignore else set()
    return [_REGISTRY[code]() for code in chosen if code not in dropped]
