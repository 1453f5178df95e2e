"""The whole-program substrate under RL7xx: resolver, call graph, driver.

The golden fixtures pin single-file behaviour; these tests exercise the
cross-module machinery the resource analysis stands on — re-export
chasing in :class:`ModuleGraph` and summary convergence over call-graph
cycles.
"""

from repro.lint.dataflow import analyze_program
from repro.lint.dataflow.modules import ModuleGraph

FACTORY = """\
def open_log(path):
    return open(path)
"""

REEXPORT_INIT = "from repro.beta.impl import open_log\n"

REEXPORT_USE = """\
from repro.beta import open_log

def first_line(path):
    handle = open_log(path)
    return handle.readline()
"""

MUTUAL = """\
def ping(handle, depth):
    if depth == 0:
        handle.close()
        return
    pong(handle, depth - 1)

def pong(handle, depth):
    ping(handle, depth)

def drain(path, depth):
    handle = open(path)
    pong(handle, depth)
"""


def _analyze(files):
    return analyze_program(list(files.items()))


def test_reexport_chain_is_chased():
    """``from repro.beta import name`` resolves through ``__init__``."""
    files = {
        "repro/beta/__init__.py": REEXPORT_INIT,
        "repro/beta/impl.py": FACTORY,
        "repro/beta/use.py": REEXPORT_USE,
    }
    graph = ModuleGraph(list(files.items()))
    resolved = graph.resolve_function("repro.beta.open_log")
    assert resolved is not None
    assert resolved[0] == "repro.beta.impl.open_log"

    # The factory's summary reaches the caller through the re-export, so
    # the caller adopts (and leaks) the handle it returns.
    analysis = _analyze(files)
    assert analysis.resource_summaries["repro.beta.impl.open_log"].returns_kind == "file"
    hits = [(f.line, f.code) for f in analysis.findings_for("repro/beta/use.py")]
    assert hits == [(4, "RL701")]
    assert analysis.findings_for("repro/beta/impl.py") == ()


def test_mutual_recursion_converges():
    analysis = _analyze({"repro/gamma/mutual.py": MUTUAL})
    ping = analysis.resource_summaries["repro.gamma.mutual.ping"]
    pong = analysis.resource_summaries["repro.gamma.mutual.pong"]
    # The close in ping flows around the cycle into pong's summary, which
    # discharges the caller's obligation.
    assert "handle" in ping.closes
    assert "handle" in pong.closes
    assert analysis.findings_for("repro/gamma/mutual.py") == ()


def test_unparsable_file_is_skipped_not_fatal():
    analysis = _analyze(
        {"repro/alpha/broken.py": "def broken(:\n", "repro/alpha/factory.py": FACTORY}
    )
    assert "repro/alpha/broken.py" not in analysis.findings
    assert "repro.alpha.factory.open_log" in analysis.resource_summaries
