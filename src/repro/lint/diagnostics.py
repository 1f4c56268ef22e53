"""Diagnostic records emitted by :mod:`repro.lint` rules.

A :class:`Diagnostic` pins one finding to a ``path:line:col`` location and
carries the rule id and a human-readable message.  Every finding fails
the run; a ``# reprolint: disable=`` comment is the one way to accept it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["Diagnostic"]


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, anchored to a source location.

    ``line`` is 1-based (as reported by :mod:`ast`); ``col`` is 0-based.

    >>> Diagnostic("RNG001", "repro/a.py", 3, 4, "nope").format_human()
    'repro/a.py:3:4: RNG001 nope'
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format_human(self) -> str:
        """``path:line:col: RULE message`` — the CLI's text form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form of the finding."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
