"""One-pass lint driver: every file once, then each rule's ``finish``.

Every run is cold and serial: each file is read, parsed and checked by
every selected rule once, in sorted order, against one rule instance per
run.  After the last file each rule's :meth:`~repro.lint.registry.Rule.finish`
reports what needed every file (RNG010's stream-name groups).  Then
suppression comments filter the findings, and suppression-usage
accounting emits SUP001 for dead comments.  Every finding fails the run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import ModuleContext, Rule
from repro.lint.rules import RULES
from repro.lint.suppress import (
    ALL,
    SuppressionEntry,
    SuppressionIndex,
    parse_suppressions,
)

__all__ = [
    "LintReport",
    "iter_python_files",
    "lint_source",
    "lint_paths",
]

PARSE_RULE_ID = "PARSE"
SUPPRESSION_RULE_ID = "SUP001"
_KNOWN = frozenset(rule_class.id for rule_class in RULES)


@dataclass
class LintReport:
    """Aggregate outcome of one lint run; any diagnostic fails it."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    """Expand files/directories into ``.py`` files, sorted per directory."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def _relpath(path: Path) -> str:
    """Project-relative posix path when possible (stable diagnostics)."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _selected_rules(select: Optional[Sequence[str]]) -> List[Rule]:
    """One instance of each rule in ``select`` (every rule when None)."""
    if select is None:
        return [rule_class() for rule_class in RULES]
    unknown = sorted(set(select) - _KNOWN)
    if unknown:
        raise ConfigurationError(
            f"unknown rule id(s): {', '.join(unknown)} (see --list-rules)"
        )
    return [rule_class() for rule_class in RULES if rule_class.id in select]


def _check_source(source: str, relpath: str, rules: List[Rule]) -> List[Diagnostic]:
    """Parse one module and run every rule's ``check`` over it."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule_id=PARSE_RULE_ID,
                path=relpath,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    module = ModuleContext(relpath=relpath, source=source, tree=tree)
    found: List[Diagnostic] = []
    for rule in rules:
        found.extend(rule.check(module))
    return found


def _dead(entry: SuppressionEntry, ran: AbstractSet[str]) -> bool:
    """Whether an unused entry is dead rather than waiting on a rule left out.

    Every rule it names must have run, or be unknown to the pack (a typo
    silences nothing whatever runs).
    """
    names = _KNOWN if ALL in entry.rules else entry.rules
    return all(name in ran or name not in _KNOWN for name in names)


def _lint(
    sources: Dict[str, str], select: Optional[Sequence[str]]
) -> Tuple[List[Diagnostic], int]:
    """Lint ``{relpath: source}``; returns ``(sorted diagnostics, suppressed)``."""
    rules = _selected_rules(select)
    found: List[Diagnostic] = []
    suppressions: Dict[str, SuppressionIndex] = {}
    for relpath in sorted(sources):
        found.extend(_check_source(sources[relpath], relpath, rules))
        suppressions[relpath] = parse_suppressions(sources[relpath])
    for rule in rules:
        found.extend(rule.finish())

    suppressed = 0
    kept: List[Diagnostic] = []
    for diagnostic in found:
        # A file that cannot parse cannot opt out.
        if diagnostic.rule_id != PARSE_RULE_ID and suppressions[
            diagnostic.path
        ].is_suppressed(diagnostic.rule_id, diagnostic.line):
            suppressed += 1
        else:
            kept.append(diagnostic)

    ran = {rule.id for rule in rules}
    if SUPPRESSION_RULE_ID in ran:
        for relpath in sorted(suppressions):
            for entry in suppressions[relpath].unused():
                if not _dead(entry, ran):
                    continue
                scope = (
                    "file-level suppression"
                    if entry.target_line is None
                    else "suppression"
                )
                kept.append(
                    Diagnostic(
                        rule_id=SUPPRESSION_RULE_ID,
                        path=relpath,
                        line=entry.comment_line,
                        col=0,
                        message=(
                            f"{scope} for {', '.join(entry.rules)} matches no "
                            "finding; delete the comment or fix its placement"
                        ),
                    )
                )

    kept.sort(key=lambda d: (d.path, d.line, d.col, d.rule_id))
    return kept, suppressed


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Lint one module given as a string, through the full pipeline.

    ``select`` limits the run to those rule ids (default: every rule).
    Suppression comments are honoured and dead ones reported (SUP001).
    Returns the surviving diagnostics sorted by location.
    """
    diagnostics, _ = _lint({path: source}, select)
    return diagnostics


def lint_paths(
    paths: Sequence[Path], select: Optional[Sequence[str]] = None
) -> LintReport:
    """Lint files and directories; the main entry point behind the CLI."""
    sources: Dict[str, str] = {}
    for path in iter_python_files(paths):
        sources[_relpath(path)] = path.read_bytes().decode("utf-8")
    report = LintReport(files_checked=len(sources))
    report.diagnostics, report.suppressed = _lint(sources, select)
    return report
