"""Lazy re-exports for package namespaces (PEP 562).

A package lists the public names it re-exports, grouped by the submodule
that defines them.  Nothing is imported up front: the first access to a
name imports its defining submodule and caches the object in the
package's namespace, so later lookups never reach ``__getattr__`` again.
A run therefore pays only for the submodules it actually touches.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str,
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """Build ``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    names it defines and the package re-exports; ``__all__`` lists them in
    table order.  ``submodules`` names further submodules that resolve as
    attributes (``repro.network`` after a bare ``import repro``).
    """
    owner: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    attributes = frozenset(submodules)
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name in owner:
            value = getattr(importlib.import_module(f"{package}.{owner[name]}"), name)
        elif name in attributes:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner) | attributes)

    return list(owner), __getattr__, __dir__
