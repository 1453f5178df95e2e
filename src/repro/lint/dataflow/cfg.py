"""Intraprocedural control-flow graphs with exception edges.

Resource lifecycle analysis (RL7xx) needs an explicit graph: "released
on every path" is a property of the path set, which straight-line
interpretation cannot express.  :func:`build_cfg` turns one
function body into a statement-level CFG with three features the RL7xx
rules depend on:

* **Exception edges.**  Every statement that can raise gets an edge to
  the innermost active exception continuation — an ``except`` handler, a
  ``finally`` body, a ``with`` cleanup node, or the synthetic
  ``raise-exit``.  A resource held across a raising statement therefore
  has a path to the raise exit on which it was never released.
* **``try``/``finally`` routing.**  ``finally`` bodies are entered from
  the protected block's normal exit, from every in-flight exception, and
  from ``return``/``break``/``continue`` unwinding; their own exit fans
  back out to every pending continuation.  (The fan-out merges
  continuations the runtime keeps distinct — a sound over-approximation
  for may-analyses, noted in docs/static-analysis.md.)
* **``with`` cleanup nodes.**  Each ``with`` statement gets one
  synthetic ``with-cleanup`` node modelling ``__exit__``: the body's
  normal exit and every exception raised inside the body route through
  it, so a context-managed resource is released on *all* paths by
  construction.

Nodes are whole statements (compound statements contribute their header
expression only; their bodies become separate nodes), which is exactly
the granularity the resource transfer functions need.  The graph is
deliberately small and picklable-free — it lives only inside one
analysis call.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..context import FunctionNode

#: Node kinds.
ENTRY = "entry"
EXIT = "exit"
RAISE_EXIT = "raise-exit"
STATEMENT = "stmt"
WITH_CLEANUP = "with-cleanup"

#: Statements that can never raise and therefore carry no exception edge.
_NON_RAISING = (ast.Pass, ast.Break, ast.Continue, ast.Global, ast.Nonlocal)


@dataclass
class CFGNode:
    """One control-flow node: a statement or a synthetic event."""

    index: int
    kind: str
    #: The AST statement this node executes (``None`` for synthetics).
    stmt: Optional[ast.stmt] = None
    #: For ``with-cleanup`` nodes: the ``ast.With``/``ast.AsyncWith``
    #: statement whose ``__exit__`` this node models.
    with_stmt: Optional[ast.stmt] = None


@dataclass
class ControlFlowGraph:
    """A function body's statement-level flow graph.

    ``succ`` maps node index → successor indices; ``exc_succ`` keeps the
    exception edges separate so clients can distinguish "fell through"
    from "unwound" (RL701 reports exception-path leaks differently).
    """

    nodes: List[CFGNode] = field(default_factory=list)
    succ: Dict[int, Set[int]] = field(default_factory=dict)
    exc_succ: Dict[int, Set[int]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 1
    raise_exit: int = 2

    def new_node(
        self,
        kind: str,
        stmt: Optional[ast.stmt] = None,
        with_stmt: Optional[ast.stmt] = None,
    ) -> int:
        node = CFGNode(
            index=len(self.nodes), kind=kind, stmt=stmt, with_stmt=with_stmt
        )
        self.nodes.append(node)
        self.succ[node.index] = set()
        self.exc_succ[node.index] = set()
        return node.index

    def add_edge(self, src: int, dst: int) -> None:
        self.succ[src].add(dst)

    def add_exc_edge(self, src: int, dst: int) -> None:
        self.exc_succ[src].add(dst)

    def successors(self, index: int) -> Set[int]:
        """All successors, normal and exceptional."""
        return self.succ[index] | self.exc_succ[index]

    def statement_nodes(self) -> List[CFGNode]:
        return [node for node in self.nodes if node.kind == STATEMENT]


class _Frame:
    """Per-construct continuations active while building a region."""

    __slots__ = ("exc_target", "break_target", "continue_target", "return_target")

    def __init__(
        self,
        exc_target: int,
        break_target: Optional[int] = None,
        continue_target: Optional[int] = None,
        return_target: Optional[int] = None,
    ):
        #: Where an in-flight exception goes next.
        self.exc_target = exc_target
        self.break_target = break_target
        self.continue_target = continue_target
        #: Where ``return`` unwinds to (EXIT, or a pending finally).
        self.return_target = return_target


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    """Whether a handler catches everything the body can raise.

    ``except Exception`` is treated as catch-all even though
    ``KeyboardInterrupt`` escapes it — demanding interrupt-safe cleanup
    from every handler would drown the real findings.
    """
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        if isinstance(node, ast.Name) and node.id in (
            "BaseException",
            "Exception",
        ):
            return True
    return False


def _can_raise(stmt: ast.stmt) -> bool:
    """Whether a statement node gets an exception edge.

    Deliberately coarse: anything that evaluates an expression may raise
    (attribute errors, arithmetic, user ``__exit__``...).  Only the few
    statements with no evaluable payload are exempt — precision here
    buys nothing, because the resource rules only act on exception
    *paths* that also carry an unreleased resource.
    """
    return not isinstance(stmt, _NON_RAISING)


class _Builder:
    """Recursive-descent CFG construction over one function body."""

    def __init__(self, function: FunctionNode):
        self.cfg = ControlFlowGraph()
        self.cfg.entry = self.cfg.new_node(ENTRY)
        self.cfg.exit = self.cfg.new_node(EXIT)
        self.cfg.raise_exit = self.cfg.new_node(RAISE_EXIT)
        self.function = function

    def build(self) -> ControlFlowGraph:
        frame = _Frame(
            exc_target=self.cfg.raise_exit, return_target=self.cfg.exit
        )
        tails = self._block(
            self.function.body, [self.cfg.entry], frame
        )
        for tail in tails:
            self.cfg.add_edge(tail, self.cfg.exit)
        return self.cfg

    # ------------------------------------------------------------------ #
    # region builders: each returns the open "fall-through" tails        #
    # ------------------------------------------------------------------ #

    def _block(
        self, stmts: Sequence[ast.stmt], preds: List[int], frame: _Frame
    ) -> List[int]:
        tails = list(preds)
        for stmt in stmts:
            tails = self._statement(stmt, tails, frame)
            if not tails:
                break  # unreachable code after return/raise/break/continue
        return tails

    def _statement(
        self, stmt: ast.stmt, preds: List[int], frame: _Frame
    ) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds, frame)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._loop(stmt, preds, frame)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds, frame)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds, frame)
        node = self._simple(stmt, preds, frame)
        if isinstance(stmt, ast.Return):
            target = (
                frame.return_target
                if frame.return_target is not None
                else self.cfg.exit
            )
            self.cfg.add_edge(node, target)
            return []
        if isinstance(stmt, ast.Raise):
            self.cfg.add_edge(node, frame.exc_target)
            return []
        if isinstance(stmt, ast.Break):
            if frame.break_target is not None:
                self.cfg.add_edge(node, frame.break_target)
            return []
        if isinstance(stmt, ast.Continue):
            if frame.continue_target is not None:
                self.cfg.add_edge(node, frame.continue_target)
            return []
        return [node]

    def _simple(
        self, stmt: ast.stmt, preds: List[int], frame: _Frame
    ) -> int:
        node = self.cfg.new_node(STATEMENT, stmt=stmt)
        for pred in preds:
            self.cfg.add_edge(pred, node)
        if _can_raise(stmt):
            self.cfg.add_exc_edge(node, frame.exc_target)
        return node

    def _if(self, stmt: ast.If, preds: List[int], frame: _Frame) -> List[int]:
        head = self._simple(stmt, preds, frame)
        then_tails = self._block(stmt.body, [head], frame)
        else_tails = (
            self._block(stmt.orelse, [head], frame) if stmt.orelse else [head]
        )
        return then_tails + else_tails

    def _loop(self, stmt: ast.stmt, preds: List[int], frame: _Frame) -> List[int]:
        head = self._simple(stmt, preds, frame)
        after: List[int] = [head]  # loop may run zero times
        join = self.cfg.new_node(STATEMENT, stmt=None)  # break-landing pad
        body_frame = _Frame(
            exc_target=frame.exc_target,
            break_target=join,
            continue_target=head,
            return_target=frame.return_target,
        )
        body = stmt.body  # type: ignore[attr-defined]
        body_tails = self._block(body, [head], body_frame)
        for tail in body_tails:
            self.cfg.add_edge(tail, head)  # back edge
        orelse = getattr(stmt, "orelse", [])
        if orelse:
            after = self._block(orelse, after, frame)
        after.append(join)
        return after

    def _try(self, stmt: ast.Try, preds: List[int], frame: _Frame) -> List[int]:
        # The finally body, if any, becomes one region entered from every
        # way out of the protected block; its tails fan back out to every
        # pending continuation (normal, exception, return/break/continue).
        if stmt.finalbody:
            fin_entry = self.cfg.new_node(STATEMENT, stmt=None)
            inner_exc = fin_entry
            inner_return = fin_entry
            inner_break = fin_entry if frame.break_target is not None else None
            inner_continue = (
                fin_entry if frame.continue_target is not None else None
            )
        else:
            fin_entry = -1
            inner_exc = frame.exc_target
            inner_return = frame.return_target
            inner_break = frame.break_target
            inner_continue = frame.continue_target

        # Exceptions in the body go to the first matching handler; the
        # static analysis cannot match types, so the body's exception
        # continuation targets *every* handler (plus the finally/outer
        # target for exceptions no handler catches).
        handler_entries: List[int] = []
        for handler in stmt.handlers:
            entry = self.cfg.new_node(STATEMENT, stmt=None)
            handler_entries.append(entry)

        body_exc = self.cfg.new_node(STATEMENT, stmt=None)  # dispatch point
        for entry in handler_entries:
            self.cfg.add_edge(body_exc, entry)
        if not any(_is_catch_all(handler) for handler in stmt.handlers):
            # Some exception may match no handler and keep unwinding.
            self.cfg.add_edge(
                body_exc, inner_exc if stmt.finalbody else frame.exc_target
            )

        body_frame = _Frame(
            exc_target=body_exc,
            break_target=inner_break
            if stmt.finalbody
            else frame.break_target,
            continue_target=inner_continue
            if stmt.finalbody
            else frame.continue_target,
            return_target=inner_return,
        )
        body_tails = self._block(stmt.body, list(preds), body_frame)
        if stmt.orelse:
            body_tails = self._block(stmt.orelse, body_tails, body_frame)

        # Handler bodies run with the *outer* (or finally) continuations.
        handler_frame = _Frame(
            exc_target=inner_exc,
            break_target=inner_break
            if stmt.finalbody
            else frame.break_target,
            continue_target=inner_continue
            if stmt.finalbody
            else frame.continue_target,
            return_target=inner_return,
        )
        handler_tails: List[int] = []
        for handler, entry in zip(stmt.handlers, handler_entries):
            handler_tails.extend(
                self._block(handler.body, [entry], handler_frame)
            )

        tails = body_tails + handler_tails
        if not stmt.finalbody:
            return tails

        for tail in tails:
            self.cfg.add_edge(tail, fin_entry)
        fin_tails = self._block(stmt.finalbody, [fin_entry], frame)
        # The finally exit resumes whichever continuation was pending:
        # normal fall-through (returned as tails), or re-raise/return/
        # break/continue unwinding.
        for tail in fin_tails:
            self.cfg.add_edge(tail, frame.exc_target)
            if frame.return_target is not None:
                self.cfg.add_edge(tail, frame.return_target)
            if frame.break_target is not None:
                self.cfg.add_edge(tail, frame.break_target)
            if frame.continue_target is not None:
                self.cfg.add_edge(tail, frame.continue_target)
        return fin_tails

    def _with(self, stmt: ast.stmt, preds: List[int], frame: _Frame) -> List[int]:
        head = self._simple(stmt, preds, frame)  # evaluates context exprs
        cleanup = self.cfg.new_node(WITH_CLEANUP, with_stmt=stmt)
        body_frame = _Frame(
            exc_target=cleanup,
            break_target=cleanup if frame.break_target is not None else None,
            continue_target=cleanup
            if frame.continue_target is not None
            else None,
            return_target=cleanup,
        )
        body = stmt.body  # type: ignore[attr-defined]
        body_tails = self._block(body, [head], body_frame)
        for tail in body_tails:
            self.cfg.add_edge(tail, cleanup)
        # __exit__ ran; resume whichever continuation was pending.
        self.cfg.add_edge(cleanup, frame.exc_target)
        if frame.return_target is not None:
            self.cfg.add_edge(cleanup, frame.return_target)
        if frame.break_target is not None:
            self.cfg.add_edge(cleanup, frame.break_target)
        if frame.continue_target is not None:
            self.cfg.add_edge(cleanup, frame.continue_target)
        return [cleanup]


def build_cfg(function: FunctionNode) -> ControlFlowGraph:
    """The statement-level CFG of one function body."""
    return _Builder(function).build()


def reachable_from_entry(cfg: ControlFlowGraph) -> Set[int]:
    """Node indices reachable from the entry node."""
    seen: Set[int] = set()
    stack = [cfg.entry]
    while stack:
        index = stack.pop()
        if index in seen:
            continue
        seen.add(index)
        stack.extend(cfg.successors(index))
    return seen


def topo_like_order(cfg: ControlFlowGraph) -> List[int]:
    """A deterministic worklist seed order (entry-first BFS)."""
    order: List[int] = []
    seen: Set[int] = set()
    queue: List[int] = [cfg.entry]
    while queue:
        index = queue.pop(0)
        if index in seen:
            continue
        seen.add(index)
        order.append(index)
        queue.extend(sorted(cfg.successors(index)))
    return order


def exception_paths_only(
    cfg: ControlFlowGraph, reaching: Tuple[Set[int], Set[int]]
) -> bool:
    """Whether a leak reaches only the raise exit (helper for messaging)."""
    normal, exceptional = reaching
    return bool(exceptional) and not normal
