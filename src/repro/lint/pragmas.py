"""``# repro-lint: disable=<code>`` pragma parsing.

Two pragma forms are recognised, mirroring established linters:

* ``# repro-lint: disable=RL101`` — suppress the listed codes on the
  pragma's own line (comma-separate several codes);
* ``# repro-lint: disable-file=RL401`` — suppress the listed codes for
  the whole file (conventionally placed near the top).

``disable=all`` / ``disable-file=all`` suppress every rule.  Pragmas are
found with :mod:`tokenize` so string literals containing the marker text
are never misread as suppressions; files that fail to tokenize fall back
to a plain line scan so a pragma still works in partially broken code.

File-wide pragmas work anywhere a comment does — after a shebang, a
``coding:`` declaration, or both — and several codes may share one
pragma (``disable-file=RL101, RL102``).  Text after the code list is
free-form justification and is ignored by the parser; RL603
suppressions are expected to carry one.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, Iterator, Set, Tuple

#: Sentinel accepted in a pragma code list to mean "every rule".
ALL_CODES = "ALL"

#: The code list is a strict comma-separated sequence of identifiers —
#: whitespace is allowed around the commas but cannot join two words
#: into one "code", so a trailing justification comment
#: (``disable=RL603 listing order is canonical``) never corrupts the
#: parsed codes.
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


def _parse_codes(raw: str) -> Set[str]:
    return {code.strip().upper() for code in raw.split(",") if code.strip()}


def _iter_comments(source: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(line, comment_text)`` pairs; tolerant of broken sources."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for number, text in enumerate(source.splitlines(), start=1):
            if "#" in text:
                yield number, text[text.index("#"):]


class Pragmas:
    """The suppression state of one source file."""

    def __init__(self, source: str):
        self._by_line: Dict[int, Set[str]] = {}
        self._file_wide: Set[str] = set()
        for line, comment in _iter_comments(source):
            match = _PRAGMA_RE.search(comment)
            if match is None:
                continue
            codes = _parse_codes(match.group("codes"))
            if match.group("kind") == "disable-file":
                self._file_wide.update(codes)
            else:
                self._by_line.setdefault(line, set()).update(codes)

    @property
    def file_wide(self) -> FrozenSet[str]:
        """Codes disabled for the entire file."""
        return frozenset(self._file_wide)

    def disabled_at(self, line: int) -> FrozenSet[str]:
        """Codes disabled specifically on ``line``."""
        return frozenset(self._by_line.get(line, set()))

    def is_disabled(self, code: str, line: int) -> bool:
        """Whether ``code`` is suppressed for a diagnostic on ``line``."""
        code = code.upper()
        for scope in (self._file_wide, self._by_line.get(line, set())):
            if code in scope or ALL_CODES in scope:
                return True
        return False
