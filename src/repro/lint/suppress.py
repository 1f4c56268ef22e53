"""``# reprolint: disable=`` suppression comments.

Two forms are recognised (comments are found with :mod:`tokenize`, so the
markers are never confused with string contents):

* ``# reprolint: disable=RNG002`` — suppresses the listed rule(s) on the
  comment's own line; when the comment stands alone on its line, it
  suppresses the *next* line instead (so long statements can carry the
  justification above them).
* ``# reprolint: disable-file=DET001`` — suppresses the rule(s) for the
  whole file; conventionally placed near the top.

Rule lists are comma-separated (``disable=RNG001,RNG002``) and ``all``
disables every rule.  Anything after the rule list is free text — use it
for the justification, e.g.::

    if gain == 0.0:  # reprolint: disable=INV002 -- exact-zero guard

Every suppression is tracked as a :class:`SuppressionEntry` that counts
how many findings it actually silenced — including findings a rule
reports from ``finish`` after the last file (RNG010).  Entries whose
count stays zero are dead comments, reported as SUP001 when the rules
they name ran.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["ALL", "SuppressionEntry", "SuppressionIndex", "parse_suppressions"]

_MARKER = re.compile(
    r"#\s*reprolint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*)"
)
ALL = "all"


@dataclass
class SuppressionEntry:
    """One suppression comment: where it lives, what it silences, usage."""

    comment_line: int
    #: Line whose findings are silenced; None for file-level suppressions.
    target_line: Optional[int]
    rules: List[str]
    used: int = 0

    def matches(self, rule_id: str, line: int) -> bool:
        if self.target_line is not None and self.target_line != line:
            return False
        return ALL in self.rules or rule_id in self.rules


@dataclass
class SuppressionIndex:
    """Which rules are suppressed on which lines of one file."""

    entries: List[SuppressionEntry] = field(default_factory=list)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is silenced at (1-based) ``line``.

        Marks every matching entry as used — suppression-usage accounting
        feeds the SUP001 unused-suppression report.
        """
        hit = False
        for entry in self.entries:
            if entry.matches(rule_id, line):
                entry.used += 1
                hit = True
        return hit

    def unused(self) -> List[SuppressionEntry]:
        """Entries that silenced nothing (sorted by comment line)."""
        return sorted(
            (entry for entry in self.entries if entry.used == 0),
            key=lambda entry: entry.comment_line,
        )


def parse_suppressions(source: str) -> SuppressionIndex:
    """Scan ``source`` for reprolint suppression comments.

    >>> index = parse_suppressions("x = 1  # reprolint: disable=INV002\\n")
    >>> index.is_suppressed("INV002", 1)
    True
    >>> index.is_suppressed("RNG001", 1)
    False
    """
    index = SuppressionIndex()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return index
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _MARKER.search(token.string)
        if match is None:
            continue
        rules = sorted(
            {rule.strip() for rule in match.group("rules").split(",") if rule.strip()}
        )
        line = token.start[0]
        if match.group("scope") == "disable-file":
            index.entries.append(
                SuppressionEntry(comment_line=line, target_line=None, rules=rules)
            )
            continue
        # A standalone comment documents the line below it.
        standalone = token.line[: token.start[1]].strip() == ""
        target = line + 1 if standalone else line
        index.entries.append(
            SuppressionEntry(comment_line=line, target_line=target, rules=rules)
        )
    return index
