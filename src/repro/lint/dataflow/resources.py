"""Resource-lifecycle analysis over the CFG: the RL7xx detectors.

The pass asks *who still owns* each resource.  Each function is
interpreted over its :mod:`.cfg` control-flow graph with a small
resource lattice:

* a **resource** is an acquisition site — an ``open()``, a
  ``SharedMemory(create=True)``, a pool/backend construction, a
  ``NamedTemporaryFile`` — identified by its source position;
* its per-path **state** is a set drawn from ``{"init", "open",
  "closed", "unlinked", "escaped"}``; the join over paths is set union,
  so ``"open"`` present at the function's exit (or raise-exit) node
  means *some* path dropped the resource while it was still live;
* **escaping** — returning the resource, storing it on ``self``/a
  global/a container, or passing it to a callee that keeps it —
  transfers ownership and ends the function's obligation.

Ownership transfer through calls is resolved with interprocedural
:class:`ResourceSummary` records (which parameters a callee closes or
keeps, whether it manufactures a resource its caller adopts), computed
over a callees-first worklist.  Unknown callees conservatively *adopt*
their arguments — the analysis trades leak coverage for zero false
positives.

Detectors (see ``docs/static-analysis.md`` for the catalog entry):

* **RL701** — resource not released on every path, exception paths
  included.
* **RL702** — definite double-close / use-after-release (must-analysis:
  fires only when *every* path already released the resource).
* **RL703** — fork-safety: a live thread, held lock, or open OS handle
  at a ``fork``/pool-spawn site.
* **RL704** — a live resource cached in a module-global container in a
  module that registers no ``atexit`` teardown hook.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..context import FunctionNode, dotted_name
from .callgraph import CallGraph
from .cfg import WITH_CLEANUP, ControlFlowGraph, build_cfg
from .modules import ClassInfo, ModuleGraph, ModuleInfo


@dataclass(frozen=True)
class RawFinding:
    """One detector hit: picklable primitives, later wrapped as a Diagnostic."""

    code: str
    line: int
    col: int
    message: str


# --------------------------------------------------------------------- #
# the resource domain                                                   #
# --------------------------------------------------------------------- #

#: Acquired but not yet live (a thread not started, a lock not held).
ST_INIT = "init"
#: Live and owned by this function.
ST_OPEN = "open"
#: Released via close/shutdown/join/release.
ST_CLOSED = "closed"
#: Released via unlink (shared memory only; stronger than closed).
ST_UNLINKED = "unlinked"
#: Ownership transferred out of the function.
ST_ESCAPED = "escaped"

KIND_FILE = "file"
KIND_TEMP = "tempfile"
KIND_SHM = "shm"
KIND_POOL = "pool"
KIND_BACKEND = "backend"
KIND_THREAD = "thread"
KIND_LOCK = "lock"

#: Kinds whose loss-without-release is an RL701 leak.  Threads and locks
#: are lifecycle-tracked only for the RL703 fork-safety check — an
#: unjoined daemon thread is a design choice, not a leak.
LEAK_KINDS = frozenset({KIND_FILE, KIND_TEMP, KIND_SHM, KIND_POOL, KIND_BACKEND})

#: Human labels for diagnostics.
KIND_LABELS = {
    KIND_FILE: "file handle",
    KIND_TEMP: "temporary file",
    KIND_SHM: "shared-memory segment",
    KIND_POOL: "worker pool",
    KIND_BACKEND: "execution backend",
    KIND_THREAD: "thread",
    KIND_LOCK: "lock",
}

#: Canonical callable name → (kind, initial state).
ACQUIRERS: Dict[str, Tuple[str, str]] = {
    "open": (KIND_FILE, ST_OPEN),
    "io.open": (KIND_FILE, ST_OPEN),
    "tempfile.NamedTemporaryFile": (KIND_TEMP, ST_OPEN),
    "tempfile.TemporaryFile": (KIND_TEMP, ST_OPEN),
    "tempfile.TemporaryDirectory": (KIND_TEMP, ST_OPEN),
    "multiprocessing.shared_memory.SharedMemory": (KIND_SHM, ST_OPEN),
    "concurrent.futures.ProcessPoolExecutor": (KIND_POOL, ST_OPEN),
    "concurrent.futures.process.ProcessPoolExecutor": (KIND_POOL, ST_OPEN),
    "concurrent.futures.ThreadPoolExecutor": (KIND_POOL, ST_OPEN),
    "concurrent.futures.thread.ThreadPoolExecutor": (KIND_POOL, ST_OPEN),
    "multiprocessing.Pool": (KIND_POOL, ST_OPEN),
    "multiprocessing.pool.Pool": (KIND_POOL, ST_OPEN),
    "repro.engine.backend.ProcessPoolBackend": (KIND_BACKEND, ST_OPEN),
    "repro.engine.backend.SharedMemoryBackend": (KIND_BACKEND, ST_OPEN),
    "repro.engine.ProcessPoolBackend": (KIND_BACKEND, ST_OPEN),
    "repro.engine.SharedMemoryBackend": (KIND_BACKEND, ST_OPEN),
    "threading.Thread": (KIND_THREAD, ST_INIT),
    "threading.Timer": (KIND_THREAD, ST_INIT),
    "threading.Lock": (KIND_LOCK, ST_INIT),
    "threading.RLock": (KIND_LOCK, ST_INIT),
    "threading.Semaphore": (KIND_LOCK, ST_INIT),
    "threading.BoundedSemaphore": (KIND_LOCK, ST_INIT),
    "threading.Condition": (KIND_LOCK, ST_INIT),
    "multiprocessing.Lock": (KIND_LOCK, ST_INIT),
    "multiprocessing.RLock": (KIND_LOCK, ST_INIT),
}

#: ``make_backend(..., fresh=True)`` hands the caller a private backend
#: it must close; without ``fresh`` the returned pool is warm/shared and
#: library-owned, so only the literal-``fresh`` form acquires.
MAKE_BACKEND_CALLS = frozenset(
    {"repro.engine.backend.make_backend", "repro.engine.make_backend"}
)

#: Constructors whose instantiation spawns worker processes.
POOL_SPAWN_CALLS = frozenset(
    name
    for name, (kind, _) in ACQUIRERS.items()
    if kind in (KIND_POOL, KIND_BACKEND)
) - {"concurrent.futures.ThreadPoolExecutor", "concurrent.futures.thread.ThreadPoolExecutor"}

#: Raw fork entry points.
FORK_CALLS = frozenset({"os.fork", "os.forkpty", "pty.fork"})

#: method name → resulting state, per kind.
RELEASE_METHODS: Dict[str, Dict[str, str]] = {
    KIND_FILE: {"close": ST_CLOSED},
    KIND_TEMP: {"close": ST_CLOSED, "cleanup": ST_CLOSED},
    KIND_SHM: {"close": ST_CLOSED, "unlink": ST_UNLINKED},
    KIND_POOL: {
        "shutdown": ST_CLOSED,
        "close": ST_CLOSED,
        "terminate": ST_CLOSED,
        "join": ST_CLOSED,
    },
    KIND_BACKEND: {"close": ST_CLOSED},
    KIND_THREAD: {"join": ST_CLOSED},
    KIND_LOCK: {"release": ST_CLOSED},
}

#: Any verb that releases *some* kind — used for untyped parameters.
ANY_RELEASE_VERBS = frozenset(
    verb for table in RELEASE_METHODS.values() for verb in table
)

#: method name → transitions init → open.
START_METHODS: Dict[str, FrozenSet[str]] = {
    KIND_THREAD: frozenset({"start"}),
    KIND_LOCK: frozenset({"acquire"}),
}

#: Container-mutator verbs that stash a value into the receiver.
_STORE_VERBS = frozenset({"append", "add", "insert", "setdefault", "update"})


# --------------------------------------------------------------------- #
# interprocedural summaries                                             #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ResourceSummary:
    """How a callee treats resources handed to (or made by) it.

    ``params`` is the positional parameter order, so call sites can map
    arguments to the ``closes``/``escapes`` membership sets.  A callee
    that neither closes nor keeps a parameter leaves the caller's
    obligation intact — which is exactly what lets a leak survive a
    helper call instead of being silenced by it.
    """

    params: Tuple[str, ...] = ()
    closes: FrozenSet[str] = frozenset()
    escapes: FrozenSet[str] = frozenset()
    #: Kind of resource the return value hands to the caller (factory).
    returns_kind: Optional[str] = None


def merge_resource_summaries(
    old: ResourceSummary, new: ResourceSummary
) -> Tuple[ResourceSummary, bool]:
    """Monotone join; ``returns_kind`` degrades to ``None`` on conflict."""
    returns_kind = new.returns_kind if old.returns_kind is None else old.returns_kind
    if old.returns_kind and new.returns_kind and old.returns_kind != new.returns_kind:
        returns_kind = None
    merged = ResourceSummary(
        params=new.params or old.params,
        closes=old.closes | new.closes,
        escapes=old.escapes | new.escapes,
        returns_kind=returns_kind,
    )
    changed = merged != old
    return merged, changed


#: Hand-written models that win over analysed bodies.  ``make_backend``
#: without ``fresh=True`` returns a *warm* pool the library owns — its
#: analysed body escapes a private instance through ``return``, which
#: must not turn every plain ``make_backend(workers)`` caller into a
#: leak suspect.
BUILTIN_RESOURCE_SUMMARIES: Dict[str, ResourceSummary] = {
    name: ResourceSummary(params=("workers", "kind", "fresh"))
    for name in MAKE_BACKEND_CALLS
}

ResourceLookup = Callable[[str], Optional[ResourceSummary]]


# --------------------------------------------------------------------- #
# per-module facts shared by every function in the module               #
# --------------------------------------------------------------------- #

_CONTAINER_HEADS = frozenset(
    {"dict", "defaultdict", "OrderedDict", "list", "set", "deque",
     "WeakValueDictionary"}
)


def _is_container_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        head = dotted_name(node.func)
        return head is not None and head.split(".")[-1] in _CONTAINER_HEADS
    return False


@dataclass(frozen=True)
class ModuleResourceFacts:
    """Module-level names RL704 cares about."""

    #: Module-global mutable containers (candidate warm caches).
    containers: FrozenSet[str]
    #: Whether the module registers any ``atexit`` teardown hook.
    has_teardown: bool


def module_resource_facts(info: ModuleInfo) -> ModuleResourceFacts:
    containers: Set[str] = set()
    for stmt in info.tree.body:
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value, targets = stmt.value, [stmt.target]
        else:
            continue
        if not _is_container_expr(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                containers.add(target.id)
    has_teardown = False
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Call):
            raw = dotted_name(node.func)
            if raw is not None and info.ctx.resolve(raw) == "atexit.register":
                has_teardown = True
                break
    return ModuleResourceFacts(
        containers=frozenset(containers), has_teardown=has_teardown
    )


# --------------------------------------------------------------------- #
# the intraprocedural interpreter                                       #
# --------------------------------------------------------------------- #


@dataclass
class _Site:
    """One acquisition site (or one phantom parameter resource)."""

    rid: int
    kind: Optional[str]
    line: int
    col: int
    label: str
    param: Optional[str] = None
    #: How the resource has escaped so far ("return" vs anything else).
    escape_reasons: Set[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.escape_reasons is None:
            self.escape_reasons = set()


Env = Dict[str, FrozenSet[int]]
Res = Dict[int, FrozenSet[str]]


def _join_env(a: Env, b: Env) -> Env:
    out = dict(a)
    for name, rids in b.items():
        out[name] = out.get(name, frozenset()) | rids
    return out


def _join_res(a: Res, b: Res) -> Res:
    out = dict(a)
    for rid, states in b.items():
        out[rid] = out.get(rid, frozenset()) | states
    return out


def _walk_expr(expr: ast.expr) -> Iterator[ast.AST]:
    """Expression walk that skips deferred bodies (lambdas)."""
    stack: List[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.Lambda):
            stack.extend(node.args.defaults)  # defaults evaluate eagerly
            continue
        stack.extend(ast.iter_child_nodes(node))


def _scan_exprs(stmt: ast.stmt) -> List[ast.expr]:
    """The sub-expressions a statement node *evaluates itself*.

    Compound statements contribute only their header (their bodies are
    separate CFG nodes); assignment targets are included so attribute
    uses like ``segment.buf[...] = blob`` register as resource uses.
    """
    if isinstance(stmt, ast.Assign):
        return [stmt.value, *stmt.targets]
    if isinstance(stmt, ast.AugAssign):
        return [stmt.value, stmt.target]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, ast.Assert):
        return [e for e in (stmt.test, stmt.msg) if e is not None]
    return []


class _ResourceInterp:
    """Fixpoint interpretation of one function over its CFG."""

    def __init__(
        self,
        module: ModuleInfo,
        function: FunctionNode,
        qualname: str,
        cls: Optional[ClassInfo],
        lookup: ResourceLookup,
        facts: ModuleResourceFacts,
    ):
        self.module = module
        self.function = function
        self.qualname = qualname
        self.cls = cls
        self.lookup = lookup
        self.facts = facts
        self.sites: Dict[int, _Site] = {}
        #: id(call node) → rid, so fixpoint re-runs reuse site identity.
        self._rid_by_call: Dict[int, int] = {}
        self._param_rids: Dict[str, int] = {}
        #: id(with stmt) → rids its cleanup node releases.
        self._with_rids: Dict[int, Set[int]] = {}
        self._class_refs = self._collect_class_refs()
        self.findings: List[RawFinding] = []

    # ------------------------------------------------------------------ #
    # setup                                                              #
    # ------------------------------------------------------------------ #

    def _canonical(self, raw: str) -> str:
        head = raw.split(".")[0]
        if head in self.module.functions or head in self.module.classes:
            return f"{self.module.module_name}.{raw}"
        return self.module.ctx.resolve(raw)

    def _acquirer_for(self, canonical: str) -> Optional[Tuple[str, str]]:
        return ACQUIRERS.get(canonical)

    def _collect_class_refs(self) -> Dict[str, FrozenSet[str]]:
        """Local names bound to acquirer *classes* (not instances).

        Covers the dispatch idiom ``cls = A if cond else B; cls(...)``:
        flow-insensitive, which is fine — misbinding could only add an
        acquisition site, and only for names that do get called.
        """
        refs: Dict[str, Set[str]] = {}

        def candidates(expr: ast.expr) -> Iterator[str]:
            if isinstance(expr, ast.IfExp):
                yield from candidates(expr.body)
                yield from candidates(expr.orelse)
                return
            raw = dotted_name(expr)
            if raw is not None:
                canonical = self._canonical(raw)
                if canonical in ACQUIRERS:
                    yield canonical

        for node in ast.walk(self.function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    found = set(candidates(node.value))
                    if found:
                        refs.setdefault(target.id, set()).update(found)
        return {name: frozenset(vals) for name, vals in refs.items()}

    def _new_rid(self, call: ast.Call, kind: str, label: str) -> int:
        rid = self._rid_by_call.get(id(call))
        if rid is None:
            rid = len(self.sites) + len(self._param_rids)
            self._rid_by_call[id(call)] = rid
            self.sites[rid] = _Site(
                rid=rid,
                kind=kind,
                line=call.lineno,
                col=call.col_offset,
                label=label,
            )
        return rid

    def _param_rid(self, name: str, node: ast.arg) -> int:
        rid = self._param_rids.get(name)
        if rid is None:
            rid = len(self.sites) + len(self._param_rids)
            self._param_rids[name] = rid
            self.sites[rid] = _Site(
                rid=rid,
                kind=None,
                line=node.lineno,
                col=node.col_offset,
                label=f"parameter {name!r}",
                param=name,
            )
        return rid

    def _entry_state(self) -> Tuple[Env, Res]:
        env: Env = {}
        res: Res = {}
        args = self.function.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg == "self":
                continue
            rid = self._param_rid(arg.arg, arg)
            env[arg.arg] = frozenset({rid})
            res[rid] = frozenset({ST_OPEN})
        return env, res

    # ------------------------------------------------------------------ #
    # transitions                                                        #
    # ------------------------------------------------------------------ #

    def _release(self, res: Res, rid: int, target: str) -> None:
        old = res.get(rid, frozenset())
        new = {target}
        if ST_ESCAPED in old:  # ownership already left on some path
            new.add(ST_ESCAPED)
        res[rid] = frozenset(new)
        site = self.sites[rid]
        if site.param:
            self._param_closed.add(site.param)

    def _escape(self, res: Res, rid: int, reason: str) -> None:
        res[rid] = frozenset({ST_ESCAPED})
        site = self.sites[rid]
        site.escape_reasons.add(reason)
        if site.param:
            self._param_escaped.add(site.param)

    def _escape_names(
        self, expr: ast.expr, env: Env, res: Res, reason: str
    ) -> None:
        stack: List[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                stack.extend(node.args.defaults)
                continue
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                # `segment.name` passed along is an attribute *read* —
                # the segment itself stays owned here, so escaping it
                # would silence a real leak.
                continue
            if isinstance(node, ast.Name) and node.id in env:
                for rid in env[node.id]:
                    self._escape(res, rid, reason)
            elif isinstance(node, ast.Call):
                # Only the call's *result* flows onward; its arguments
                # were already routed through call semantics (summary
                # close/escape/neutral) and must not be re-escaped here.
                rid = self._rid_by_call.get(id(node))
                if rid is not None:
                    self._escape(res, rid, reason)
                continue
            stack.extend(ast.iter_child_nodes(node))

    # ------------------------------------------------------------------ #
    # call / attribute event handling                                    #
    # ------------------------------------------------------------------ #

    def _report(
        self, code: str, node: ast.AST, message: str, record: bool
    ) -> None:
        if record:
            self.findings.append(
                RawFinding(
                    code=code,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                )
            )

    def _check_fork_site(
        self, call: ast.Call, what: str, env: Env, res: Res, record: bool
    ) -> None:
        if not record:
            return
        live: List[Tuple[int, str]] = []
        for rid, states in sorted(res.items()):
            site = self.sites[rid]
            if site.param or ST_OPEN not in states:
                continue
            if site.kind == KIND_THREAD:
                live.append(
                    (site.line, f"the thread started from line {site.line} may still be running")
                )
            elif site.kind == KIND_LOCK:
                live.append(
                    (site.line, f"the lock acquired at line {site.line} may still be held")
                )
            elif site.kind in (KIND_FILE, KIND_TEMP, KIND_SHM):
                live.append(
                    (site.line, f"the {site.label} opened at line {site.line} may still be open")
                )
        for _, description in live:
            self._report(
                "RL703",
                call,
                f"{what} while {description}; forked children inherit it "
                "— release it first or move the spawn earlier",
                record,
            )

    def _summary_for_call(self, canonical: Optional[str]) -> Optional[ResourceSummary]:
        if canonical is None:
            return None
        builtin = BUILTIN_RESOURCE_SUMMARIES.get(canonical)
        if builtin is not None:
            return builtin
        return self.lookup(canonical)

    def _apply_args(
        self,
        call: ast.Call,
        summary: Optional[ResourceSummary],
        env: Env,
        res: Res,
    ) -> None:
        """Ownership effects of handing tracked names to a callee."""

        def handle(rids: FrozenSet[int], param: Optional[str]) -> None:
            for rid in rids:
                if summary is None:
                    self._escape(res, rid, "call")
                elif param is not None and param in summary.closes:
                    self._release(res, rid, ST_CLOSED)
                elif param is None or param in summary.escapes:
                    self._escape(res, rid, "call")
                # known callee, neutral parameter: obligation stays here

        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                self._escape_names(arg.value, env, res, "call")
                continue
            if isinstance(arg, ast.Name) and arg.id in env:
                param = None
                if summary is not None and position < len(summary.params):
                    param = summary.params[position]
                handle(env[arg.id], param)
            else:
                self._escape_names(arg, env, res, "call")
        for keyword in call.keywords:
            if isinstance(keyword.value, ast.Name) and keyword.value.id in env:
                handle(env[keyword.value.id], keyword.arg)
            else:
                self._escape_names(keyword.value, env, res, "call")

    def _apply_method(
        self,
        call: ast.Call,
        base: str,
        verb: str,
        env: Env,
        res: Res,
        record: bool,
    ) -> None:
        for rid in env.get(base, frozenset()):
            site = self.sites[rid]
            states = res.get(rid, frozenset())
            if site.kind is None:
                # Phantom parameter: only summary facts, no diagnostics.
                if verb in ANY_RELEASE_VERBS:
                    self._release(res, rid, ST_CLOSED)
                continue
            releases = RELEASE_METHODS.get(site.kind, {})
            starts = START_METHODS.get(site.kind, frozenset())
            if verb in releases:
                target = releases[verb]
                if states and states == frozenset({target}):
                    done = "unlinked" if target == ST_UNLINKED else "closed"
                    self._report(
                        "RL702",
                        call,
                        f"{site.label} from line {site.line} is already "
                        f"{done} on every path reaching this "
                        f"{verb}() — double release",
                        record,
                    )
                self._release(res, rid, target)
            elif verb in starts:
                res[rid] = frozenset({ST_OPEN})
            else:
                self._check_use(call, site, states, record)
        # Arguments of a method call on a tracked resource: unknown
        # callee semantics, so tracked arguments escape.
        for arg in call.args:
            self._escape_names(arg, env, res, "call")
        for keyword in call.keywords:
            self._escape_names(keyword.value, env, res, "call")

    def _check_use(
        self,
        node: ast.AST,
        site: _Site,
        states: FrozenSet[str],
        record: bool,
    ) -> None:
        if not states or not states <= {ST_CLOSED, ST_UNLINKED}:
            return
        how = "unlink()" if ST_UNLINKED in states else "close()"
        self._report(
            "RL702",
            node,
            f"{site.label} from line {site.line} is used after {how} "
            "on every path reaching this line",
            record,
        )

    def _apply_call(
        self,
        call: ast.Call,
        env: Env,
        res: Res,
        created: List[int],
        record: bool,
    ) -> None:
        raw = dotted_name(call.func)
        if raw is None:
            # f()(x), obj[i].close(), ... — untrackable: tracked
            # arguments escape, nothing is acquired.
            for arg in call.args:
                self._escape_names(arg, env, res, "call")
            for keyword in call.keywords:
                self._escape_names(keyword.value, env, res, "call")
            return

        parts = raw.split(".")
        # Method call on a tracked local resource (`segment.close()`).
        if len(parts) == 2 and parts[0] in env:
            self._apply_method(call, parts[0], parts[1], env, res, record)
            return
        # `self.helper(...)` — resolve against the enclosing class.
        if parts[0] == "self" and self.cls is not None and len(parts) == 2:
            summary = self.lookup(f"{self.cls.qualname}.{parts[1]}")
            self._apply_args(call, summary, env, res)
            self._maybe_adopt_factory(call, summary, res, created)
            return

        # Acquirer-class reference through a local name (`cls(...)`).
        if len(parts) == 1 and parts[0] in self._class_refs:
            canonicals = self._class_refs[parts[0]]
            if canonicals & POOL_SPAWN_CALLS:
                self._check_fork_site(
                    call, f"{parts[0]}(...) spawns a worker pool", env, res, record
                )
            kind, state = ACQUIRERS[sorted(canonicals)[0]]
            rid = self._new_rid(call, kind, KIND_LABELS[kind])
            res[rid] = frozenset({state})
            created.append(rid)
            self._apply_args(call, None, env, res)
            return

        canonical = self._canonical(raw)

        if canonical in FORK_CALLS:
            self._check_fork_site(
                call, f"{canonical}() forks the process", env, res, record
            )
            return
        if canonical in POOL_SPAWN_CALLS:
            self._check_fork_site(
                call,
                f"{canonical.rsplit('.', 1)[-1]}(...) spawns a worker pool",
                env,
                res,
                record,
            )

        acquired = self._acquirer_for(canonical)
        if acquired is None and canonical in MAKE_BACKEND_CALLS:
            for keyword in call.keywords:
                if (
                    keyword.arg == "fresh"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    acquired = (KIND_BACKEND, ST_OPEN)
                    break
        if acquired is not None:
            kind, state = acquired
            if kind == KIND_SHM and not _truthy_keyword(call, "create"):
                label = "attached shared-memory segment"
            else:
                label = KIND_LABELS[kind]
            rid = self._new_rid(call, kind, label)
            res[rid] = frozenset({state})
            created.append(rid)
            self._apply_args(call, None, env, res)
            return

        summary = self._summary_for_call(canonical)
        self._apply_args(call, summary, env, res)
        self._maybe_adopt_factory(call, summary, res, created)

    def _maybe_adopt_factory(
        self,
        call: ast.Call,
        summary: Optional[ResourceSummary],
        res: Res,
        created: List[int],
    ) -> None:
        if summary is None or summary.returns_kind is None:
            return
        kind = summary.returns_kind
        rid = self._new_rid(call, kind, KIND_LABELS[kind])
        res[rid] = frozenset({ST_OPEN})
        created.append(rid)

    # ------------------------------------------------------------------ #
    # statement transfer                                                 #
    # ------------------------------------------------------------------ #

    def _value_rids(self, expr: ast.expr, env: Env) -> FrozenSet[int]:
        """Resources an assignment RHS binds (aliases or fresh sites)."""
        if isinstance(expr, ast.Await):
            return self._value_rids(expr.value, env)
        if isinstance(expr, ast.Name):
            return env.get(expr.id, frozenset())
        if isinstance(expr, ast.Call):
            rid = self._rid_by_call.get(id(expr))
            return frozenset({rid}) if rid is not None else frozenset()
        if isinstance(expr, ast.IfExp):
            return self._value_rids(expr.body, env) | self._value_rids(
                expr.orelse, env
            )
        return frozenset()

    def _bind(self, target: ast.expr, rids: FrozenSet[int], env: Env, res: Res) -> None:
        if isinstance(target, ast.Name):
            if rids:
                env[target.id] = rids
            else:
                env.pop(target.id, None)  # strong rebind away
            return
        if isinstance(target, ast.Starred):
            self._bind(target.value, rids, env, res)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            for rid in rids:
                self._escape(res, rid, "store")
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, rids, env, res)

    def _store_into_global(
        self, stmt: ast.stmt, target: ast.expr, rids: FrozenSet[int], record: bool
    ) -> None:
        """RL704: a live resource cached in a module-global container."""
        base = target
        if isinstance(base, ast.Subscript):
            base = base.value
        if not (isinstance(base, ast.Name) and base.id in self.facts.containers):
            return
        if self.facts.has_teardown:
            return
        for rid in sorted(rids):
            site = self.sites[rid]
            if site.kind in LEAK_KINDS:
                self._report(
                    "RL704",
                    stmt,
                    f"live {site.label} is cached in module-global "
                    f"{base.id!r} but the module registers no teardown "
                    "hook; add atexit.register(<close-all>) so interpreter "
                    "exit releases it",
                    record,
                )

    def _transfer(
        self,
        node_kind: str,
        stmt: Optional[ast.stmt],
        with_stmt: Optional[ast.stmt],
        state: Tuple[Env, Res],
        record: bool,
    ) -> Tuple[Tuple[Env, Res], List[int]]:
        env: Env = dict(state[0])
        res: Res = dict(state[1])
        created: List[int] = []

        if node_kind == WITH_CLEANUP and with_stmt is not None:
            for rid in self._with_rids.get(id(with_stmt), ()):
                if ST_ESCAPED not in res.get(rid, frozenset()):
                    self._release(res, rid, ST_CLOSED)
            return (env, res), created
        if stmt is None:
            return (env, res), created

        # Phase A1: use-checks against the statement's *in* state, before
        # any call in the statement can escape the receiver (`bytes(
        # seg.buf[:1])` must still see seg's must-unlinked state).
        call_funcs: Set[int] = set()
        exprs = _scan_exprs(stmt)
        for expr in exprs:
            for sub in _walk_expr(expr):
                if isinstance(sub, ast.Call):
                    call_funcs.add(id(sub.func))
        if record:
            for expr in exprs:
                for sub in _walk_expr(expr):
                    if (
                        isinstance(sub, ast.Attribute)
                        and id(sub) not in call_funcs
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id in env
                    ):
                        for rid in env[sub.value.id]:
                            site = self.sites[rid]
                            if site.kind is not None:
                                self._check_use(
                                    sub, site, res.get(rid, frozenset()), record
                                )
        # Phase A2: apply call semantics (acquire/release/escape).
        for expr in exprs:
            for sub in _walk_expr(expr):
                if isinstance(sub, ast.Call):
                    self._apply_call(sub, env, res, created, record)

        # Phase B: statement shape — binding, escaping, registration.
        if isinstance(stmt, ast.Assign):
            rids = self._value_rids(stmt.value, env)
            if not rids:
                self._escape_names(stmt.value, env, res, "store")
            for target in stmt.targets:
                self._store_into_global(stmt, target, rids, record)
                self._bind(target, rids, env, res)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            rids = self._value_rids(stmt.value, env)
            if not rids:
                self._escape_names(stmt.value, env, res, "store")
            self._store_into_global(stmt, stmt.target, rids, record)
            self._bind(stmt.target, rids, env, res)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self._escape_names(stmt.value, env, res, "return")
        elif isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)
        ):
            inner = stmt.value.value
            if inner is not None:
                self._escape_names(inner, env, res, "return")
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            scoped = self._with_rids.setdefault(id(stmt), set())
            for item in stmt.items:
                rids: FrozenSet[int] = frozenset()
                rid = self._rid_by_call.get(id(item.context_expr))
                if rid is not None:
                    rids = frozenset({rid})
                elif isinstance(item.context_expr, ast.Name):
                    rids = env.get(item.context_expr.id, frozenset())
                    for held in rids:  # `with lock:` holds for the body
                        if self.sites[held].kind == KIND_LOCK:
                            res[held] = frozenset({ST_OPEN})
                scoped.update(rids)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, rids, env, res)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)

        return (env, res), created

    # ------------------------------------------------------------------ #
    # the fixpoint driver                                                #
    # ------------------------------------------------------------------ #

    def run(self) -> Tuple[Tuple[RawFinding, ...], ResourceSummary]:
        self._param_closed: Set[str] = set()
        self._param_escaped: Set[str] = set()
        cfg = build_cfg(self.function)
        entry_state = self._entry_state()
        in_states: Dict[int, Tuple[Env, Res]] = {cfg.entry: entry_state}

        def propagate(dst: int, state: Tuple[Env, Res]) -> bool:
            old = in_states.get(dst)
            if old is None:
                in_states[dst] = (dict(state[0]), dict(state[1]))
                return True
            env = _join_env(old[0], state[0])
            res = _join_res(old[1], state[1])
            if env != old[0] or res != old[1]:
                in_states[dst] = (env, res)
                return True
            return False

        worklist: List[int] = [cfg.entry]
        iterations = 0
        limit = max(64, len(cfg.nodes) * len(cfg.nodes) * 4)
        while worklist and iterations < limit:
            iterations += 1
            index = worklist.pop(0)
            node = cfg.nodes[index]
            state = in_states.get(index)
            if state is None:
                continue
            out, created = self._transfer(
                node.kind, node.stmt, node.with_stmt, state, record=False
            )
            # Exception edges: the statement may have raised *before*
            # acquiring, so freshly created sites are absent on them.
            exc_out = out
            if created:
                env = {
                    name: rids - frozenset(created)
                    for name, rids in out[0].items()
                }
                exc_out = (
                    {name: rids for name, rids in env.items() if rids},
                    {
                        rid: states
                        for rid, states in out[1].items()
                        if rid not in created
                    },
                )
            for dst in sorted(cfg.succ[index]):
                if propagate(dst, out):
                    worklist.append(dst)
            for dst in sorted(cfg.exc_succ[index]):
                if propagate(dst, exc_out):
                    worklist.append(dst)

        # Recording pass over converged states, in node-index order.
        self.findings = []
        for node in cfg.nodes:
            state = in_states.get(node.index)
            if state is None or node.kind == WITH_CLEANUP:
                continue
            self._transfer(node.kind, node.stmt, node.with_stmt, state, record=True)

        self._check_leaks(cfg, in_states)
        summary = ResourceSummary(
            params=tuple(self._param_rids),
            closes=frozenset(self._param_closed),
            escapes=frozenset(self._param_escaped),
            returns_kind=self._returns_kind(),
        )
        ordered = tuple(
            sorted(set(self.findings), key=lambda f: (f.line, f.col, f.code, f.message))
        )
        return ordered, summary

    def _returns_kind(self) -> Optional[str]:
        kinds: Set[str] = set()
        for site in self.sites.values():
            if site.param or site.kind not in LEAK_KINDS:
                continue
            if site.escape_reasons and site.escape_reasons == {"return"}:
                kinds.add(site.kind)
        return kinds.pop() if len(kinds) == 1 else None

    def _check_leaks(
        self, cfg: ControlFlowGraph, in_states: Dict[int, Tuple[Env, Res]]
    ) -> None:
        exit_res = (in_states.get(cfg.exit) or ({}, {}))[1]
        raise_res = (in_states.get(cfg.raise_exit) or ({}, {}))[1]
        for rid in sorted(self.sites):
            site = self.sites[rid]
            if site.param or site.kind not in LEAK_KINDS:
                continue
            finding = ast.Expr(value=ast.Constant(value=None))
            finding.lineno = site.line
            finding.col_offset = site.col
            if ST_OPEN in exit_res.get(rid, frozenset()):
                self._report(
                    "RL701",
                    finding,
                    f"{site.label} opened here may still be open at "
                    "function exit; release it on every path or use a "
                    "with block",
                    True,
                )
            elif ST_OPEN in raise_res.get(rid, frozenset()):
                self._report(
                    "RL701",
                    finding,
                    f"{site.label} opened here is not released when an "
                    "exception propagates; close it in a try/finally or "
                    "use a with block",
                    True,
                )


def _truthy_keyword(call: ast.Call, name: str) -> bool:
    for keyword in call.keywords:
        if keyword.arg == name:
            return bool(
                isinstance(keyword.value, ast.Constant) and keyword.value.value
            )
    return False


# --------------------------------------------------------------------- #
# the interprocedural driver                                            #
# --------------------------------------------------------------------- #


def analyze_resources(
    graph: ModuleGraph, call_graph: CallGraph
) -> Tuple[Dict[str, List[RawFinding]], Dict[str, ResourceSummary]]:
    """Resource findings per path + converged summaries per qualname.

    Worklist fixpoint: every function is analysed once callees-first,
    then only the callers of a function whose :class:`ResourceSummary`
    grew are re-analysed; a function's last run saw converged callee
    summaries, so its findings are final.
    """
    summaries: Dict[str, ResourceSummary] = {}

    def lookup(name: str) -> Optional[ResourceSummary]:
        builtin = BUILTIN_RESOURCE_SUMMARIES.get(name)
        if builtin is not None:
            return builtin
        if name in summaries:
            return summaries[name]
        resolved = graph.resolve_function(name)
        if resolved is not None:
            return summaries.get(resolved[0])
        return None

    facts_by_path: Dict[str, ModuleResourceFacts] = {}

    def facts_for(info: ModuleInfo) -> ModuleResourceFacts:
        cached = facts_by_path.get(info.path)
        if cached is None:
            cached = module_resource_facts(info)
            facts_by_path[info.path] = cached
        return cached

    order = call_graph.processing_order()
    callers: Dict[str, Set[str]] = {}
    for caller, callees in call_graph.edges.items():
        for callee in callees:
            callers.setdefault(callee, set()).add(caller)
    position = {qualname: index for index, qualname in enumerate(order)}
    attempts: Dict[str, int] = {}
    last: Dict[str, Tuple[str, Tuple[RawFinding, ...]]] = {}

    wave = list(order)
    while wave:
        next_wave: Set[str] = set()
        for qualname in wave:
            if attempts.get(qualname, 0) >= 10:
                continue  # safety valve against pathological cycles
            attempts[qualname] = attempts.get(qualname, 0) + 1
            info, node = call_graph.functions[qualname]
            cls = graph.class_for_method(info, node)
            interp = _ResourceInterp(
                module=info,
                function=node,
                qualname=qualname,
                cls=cls,
                lookup=lookup,
                facts=facts_for(info),
            )
            findings, summary = interp.run()
            last[qualname] = (info.path, findings)
            old = summaries.get(qualname)
            if old is None:
                summaries[qualname] = summary
                # A first summary always counts as news: callers analysed
                # earlier (cycles, unresolved edges) assumed "unknown
                # callee" and must re-run even if the summary is neutral.
                changed = True
            else:
                merged, changed = merge_resource_summaries(old, summary)
                summaries[qualname] = merged
            if changed:
                next_wave.update(callers.get(qualname, ()))
        wave = sorted(next_wave, key=lambda name: position.get(name, 0))

    per_path: Dict[str, List[RawFinding]] = {}
    for qualname in order:
        entry = last.get(qualname)
        if entry is not None and entry[1]:
            per_path.setdefault(entry[0], []).extend(entry[1])
    return per_path, summaries
