"""Per-layer span tracer that wraps the library's public entry points.

The tracer patches each layer's public function or method *from outside*
the library: it replaces every module attribute bound to the original
function object (scanning ``sys.modules``, so ``from .x import f``
aliases are caught) and every class attribute of the classes that define
a traced method, and puts every original back on exit.

Spans live in memory as ``(layer, name, start, end, parent)``.  A call
that opens inside an already open span of the same layer is merged into
it (no new span, no new counts), so per-layer totals never double-count
self-recursive layers such as ``sample_matrix -> sample``.  A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Extracts per-span counts from ``(args, kwargs, result)``.
CountFn = Callable[[tuple, dict, Any], Dict[str, float]]

#: Decides from ``(args, kwargs)`` whether a call opens a span at all.
WhenFn = Callable[[tuple, dict], bool]


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    child_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """An in-memory span recorder with an injectable clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._open_layers: Dict[str, int] = defaultdict(int)
        self._restore: List[Tuple[Any, str, Any]] = []

    def call(
        self,
        layer: str,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        count: Optional[CountFn] = None,
    ) -> Any:
        """Run ``fn`` inside a span of ``layer`` (merged if one is open)."""
        if self._open_layers[layer]:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = Span(layer, name, self.clock(), parent=parent)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        self._open_layers[layer] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._open_layers[layer] -= 1
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.duration
        if count is not None:
            span.counts = count(args, kwargs, result)
        return result

    # ------------------------------------------------------------------ #
    # patching                                                           #
    # ------------------------------------------------------------------ #

    def _wrap(
        self,
        original: Callable[..., Any],
        layer: str,
        name: str,
        count: Optional[CountFn],
        when: Optional[WhenFn],
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if when is not None and not when(args, kwargs):
                return original(*args, **kwargs)
            return tracer.call(layer, name, original, args, kwargs, count)

        return wrapper

    def patch_function(
        self,
        original: Callable[..., Any],
        layer: str,
        count: Optional[CountFn] = None,
        when: Optional[WhenFn] = None,
    ) -> None:
        """Wrap every module attribute that *is* ``original`` in a span."""
        self.rebind(original, self._wrap(original, layer, original.__name__, count, when))

    def rebind(self, original: Callable[..., Any], replacement: Callable[..., Any]) -> None:
        """Point every module attribute that *is* ``original`` at
        ``replacement`` until :meth:`restore`."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def patch_method(
        self,
        cls: type,
        method: str,
        layer: str,
        count: Optional[CountFn] = None,
        when: Optional[WhenFn] = None,
    ) -> None:
        """Wrap ``cls.<method>`` as defined in the class's own namespace."""
        original = cls.__dict__[method]
        wrapper = self._wrap(
            original, layer, f"{cls.__name__}.{method}", count, when
        )
        self._restore.append((cls, method, original))
        setattr(cls, method, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, most recent first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    # ------------------------------------------------------------------ #
    # aggregation                                                        #
    # ------------------------------------------------------------------ #

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``total_s``, ``self_s`` and summed counts."""
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            entry = totals[span.layer]
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.self_s
            for key, value in span.counts.items():
                entry[key] = entry.get(key, 0) + value
        return dict(totals)

    def enclosing(self, span: Span, layer: str) -> Optional[int]:
        """Index of the nearest span of ``layer`` that encloses ``span``."""
        parent = span.parent
        while parent is not None and self.spans[parent].layer != layer:
            parent = self.spans[parent].parent
        return parent

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in start order."""
        return [span.duration for span in self.spans if span.name == name]


def argument(fn: Callable[..., Any], name: str) -> Callable[[tuple, dict], Any]:
    """A fast getter for parameter ``name`` of ``fn`` (default applied)."""
    parameters = list(inspect.signature(fn).parameters.values())
    position = [p.name for p in parameters].index(name)
    default = parameters[position].default

    def get(args: tuple, kwargs: dict) -> Any:
        if len(args) > position:
            return args[position]
        return kwargs.get(name, default)

    return get


#: The package whose classes :func:`classes_defining` searches.
PACKAGE = "repro"


def classes_defining(method: str, base: Optional[type] = None) -> List[type]:
    """Every loaded class under :data:`PACKAGE` whose own namespace defines
    ``method`` as a plain, non-abstract function (optionally restricted to
    subclasses of ``base``), in a stable order."""
    found: Dict[str, type] = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
        ):
            continue
        for value in list(vars(module).values()):
            if not isinstance(value, type) or not value.__module__.startswith(PACKAGE):
                continue
            if base is not None and not issubclass(value, base):
                continue
            member = value.__dict__.get(method)
            if inspect.isfunction(member) and not getattr(
                member, "__isabstractmethod__", False
            ):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return [found[key] for key in sorted(found)]


def list_schedule_makespan(durations: Iterable[float], workers: int) -> float:
    """Makespan of greedy in-order list scheduling onto ``workers`` slots
    (each task goes to the slot that frees up first, as a FIFO pool does)."""
    slots = [0.0] * max(1, workers)
    for duration in durations:
        slot = min(range(len(slots)), key=slots.__getitem__)
        slots[slot] += duration
    return max(slots)
