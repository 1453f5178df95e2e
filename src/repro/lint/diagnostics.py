"""Source-located lint diagnostics.

A :class:`Diagnostic` pins one rule violation to a ``path:line:col``
location.  Diagnostics sort by location so output is stable regardless of
the order rules ran in, and they render in the conventional
``path:line:col: CODE message`` compiler format that editors can parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


def _escape_data(text: str) -> str:
    """Escape workflow-command message data (GitHub runner rules)."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _escape_property(text: str) -> str:
    """Escape workflow-command property values (GitHub runner rules)."""
    return _escape_data(text).replace(":", "%3A").replace(",", "%2C")


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One located lint finding.

    Attributes
    ----------
    path:
        File the finding was produced for (as given to the linter).
    line / col:
        1-based line and 0-based column of the offending node.
    code:
        Rule code, e.g. ``"RL101"``.
    message:
        Human-readable explanation including the remedy.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """Render in ``path:line:col: CODE message`` compiler format."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def format_github(self) -> str:
        """Render as a GitHub Actions ``::error`` workflow command.

        The annotation surfaces inline on the PR diff.  Message data and
        property values use the escaping GitHub's runner defines for
        workflow commands (``%``/CR/LF in data; additionally ``:`` and
        ``,`` in property values).
        """
        message = _escape_data(f"{self.code} {self.message}")
        path = _escape_property(self.path)
        return (
            f"::error file={path},line={self.line},"
            f"col={self.col + 1},title={self.code}::{message}"
        )

    def to_json(self) -> Dict[str, Any]:
        """JSON-friendly dict for ``--format json`` output."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }
