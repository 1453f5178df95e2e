"""Resource-lifecycle and fork-safety rules (RL701–RL704).

Unlike the per-file families, these rules replay findings computed by
the whole-program CFG-based resource pass in
:mod:`repro.lint.dataflow.resources`: the runner builds one
:class:`~repro.lint.dataflow.ProgramAnalysis` over every file in the
invocation and attaches it to each :class:`ModuleContext` as
``ctx.program``; each rule then emits the findings recorded against its
own code for the file at hand.  Routing findings through ordinary
``check()`` calls keeps pragma suppression, ``--select``/``--ignore``
filtering, sorting, and exit codes identical to every other family.

When a file is linted standalone (``lint_source`` without a program),
the rules analyse that single file on demand.
"""

from __future__ import annotations

from typing import Iterator

from ..context import ModuleContext
from ..dataflow import ProgramAnalysis, analyze_program
from ..diagnostics import Diagnostic
from ..registry import Rule, register_rule


def _program_for(ctx: ModuleContext) -> ProgramAnalysis:
    """The invocation-wide analysis, or an on-demand single-file one."""
    program = getattr(ctx, "program", None)
    if isinstance(program, ProgramAnalysis):
        return program
    cached = getattr(ctx, "_dataflow_single_file", None)
    if not isinstance(cached, ProgramAnalysis):
        cached = analyze_program([(ctx.path, ctx.source)])
        ctx._dataflow_single_file = cached  # type: ignore[attr-defined]
    return cached


class _DataflowRule(Rule):
    """Shared replay logic: emit this code's findings for this file."""

    requires_program = True

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for finding in _program_for(ctx).findings_for(ctx.path, self.code):
            yield Diagnostic(
                path=ctx.path,
                line=finding.line,
                col=finding.col,
                code=self.code,
                message=finding.message,
            )


@register_rule
class ResourceNotReleased(_DataflowRule):
    """A resource some path drops while it is still live."""

    code = "RL701"
    name = "resource-not-released"
    summary = "resource not released on every path (exception paths included)"
    rationale = (
        "A shared-memory segment, pool, or file handle that is not "
        "released on *every* path — the paths an exception takes "
        "included — outlives the function that owns it: segments linger "
        "in /dev/shm until the resource tracker complains, pools keep "
        "worker processes alive, and file descriptors accumulate across "
        "a sweep.  Release in a finally block, use a with block, or "
        "hand ownership to a caller explicitly."
    )


@register_rule
class DoubleRelease(_DataflowRule):
    """Definite double-close or use-after-release."""

    code = "RL702"
    name = "double-release"
    summary = "resource released twice, or used after close()/unlink()"
    rationale = (
        "Closing a resource every path already closed, or touching a "
        "segment after unlink(), is latent-crash territory: shared "
        "memory raises once the mapping is gone, executors raise on "
        "submit-after-shutdown, and double unlinks can evict a "
        "*different* process's registration under the shared resource "
        "tracker.  The analysis only fires when every path agrees the "
        "resource was already released, so a hit is a real ordering bug."
    )


@register_rule
class ForkUnsafeState(_DataflowRule):
    """Live threads, held locks, or open handles at a fork site."""

    code = "RL703"
    name = "fork-unsafe-state"
    summary = "fork/pool-spawn while a thread, lock, or OS handle is live"
    rationale = (
        "fork() clones exactly one thread but the whole address space: "
        "a lock held at fork time stays locked forever in the child, a "
        "running thread simply vanishes mid-critical-section, and "
        "inherited file/segment descriptors alias the parent's offsets. "
        "The shm backend deliberately forks *early*, before per-estimate "
        "state exists — spawn pools before acquiring per-task resources."
    )


@register_rule
class GlobalResourceWithoutTeardown(_DataflowRule):
    """A warm resource cached in a module global with no teardown hook."""

    code = "RL704"
    name = "global-resource-without-teardown"
    summary = "module-global resource cache with no registered teardown hook"
    rationale = (
        "Warm pools and segments cached in module globals outlive every "
        "function scope, so nothing releases them unless interpreter "
        "exit is wired to: without an atexit hook the resource tracker "
        "reports leaked shared_memory objects and pool workers are "
        "reaped by the OS instead of shut down.  Register a module-level "
        "atexit.register(<close-all>) next to the cache."
    )
