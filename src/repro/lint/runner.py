"""One-pass lint driver: every file once, then each rule's ``finish``.

Every run is cold and serial: each file is read, parsed and checked by
every enabled rule once, in sorted order, against one rule instance per
run.  After the last file each rule's :meth:`~repro.lint.registry.Rule.finish`
reports what needed every file (RNG010's stream-name groups).  Then
suppression comments filter the findings, and under ``--strict``
suppression-usage accounting emits SUP001 for dead comments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import ModuleContext, Rule, all_rules
from repro.lint.suppress import SuppressionIndex, parse_suppressions

__all__ = [
    "LintReport",
    "iter_python_files",
    "lint_source",
    "lint_paths",
]

PARSE_RULE_ID = "PARSE"
SUPPRESSION_RULE_ID = "SUP001"


@dataclass
class LintReport:
    """Aggregate outcome of one lint run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    def worst_severity(self) -> Optional[Severity]:
        """Highest severity present, or None when the run is clean."""
        if not self.diagnostics:
            return None
        return max(diagnostic.severity for diagnostic in self.diagnostics)

    def failed(self, fail_on: Severity) -> bool:
        """Whether any finding is at or above the ``fail_on`` threshold."""
        worst = self.worst_severity()
        return worst is not None and worst >= fail_on


def iter_python_files(
    paths: Sequence[Path], config: LintConfig
) -> Iterable[Path]:
    """Expand files/directories into non-excluded ``.py`` files, sorted."""
    collected: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            collected.extend(sorted(path.rglob("*.py")))
        else:
            collected.append(path)
    for candidate in collected:
        if not config.is_excluded(candidate.as_posix()):
            yield candidate


def _relpath(path: Path) -> str:
    """Project-relative posix path when possible (stable diagnostics)."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _check_source(
    source: str, relpath: str, config: LintConfig, rules: List[Rule]
) -> List[Diagnostic]:
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
                severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}",
            )
        ]
    module = ModuleContext(relpath=relpath, source=source, tree=tree, config=config)
    found: List[Diagnostic] = []
    for rule in rules:
        found.extend(rule.check(module))
    return found


def _lint(
    sources: Dict[str, str], config: LintConfig, strict: bool
) -> Tuple[List[Diagnostic], int]:
    """Lint ``{relpath: source}``; returns ``(sorted diagnostics, suppressed)``."""
    rules = [
        rule_class()
        for rule_class in all_rules()
        if config.rule_enabled(rule_class.id)
    ]
    found: List[Diagnostic] = []
    suppressions: Dict[str, SuppressionIndex] = {}
    for relpath in sorted(sources):
        found.extend(_check_source(sources[relpath], relpath, config, rules))
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

    if strict and config.rule_enabled(SUPPRESSION_RULE_ID):
        severity = config.severity_for(SUPPRESSION_RULE_ID, Severity.WARNING)
        for relpath in sorted(suppressions):
            for entry in suppressions[relpath].unused():
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
                        severity=severity,
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
    config: Optional[LintConfig] = None,
    strict: Optional[bool] = None,
) -> List[Diagnostic]:
    """Lint one module given as a string, through the full pipeline.

    Suppression comments are honoured; ``strict`` (default: the config's
    ``strict`` flag) additionally reports unused suppressions.  Returns
    the surviving diagnostics sorted by location.
    """
    config = config or LintConfig()
    diagnostics, _ = _lint(
        {path: source}, config, strict=config.strict if strict is None else strict
    )
    return diagnostics


def lint_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    *,
    strict: Optional[bool] = None,
) -> LintReport:
    """Lint files and directories; the main entry point behind the CLI."""
    config = config or LintConfig()
    sources: Dict[str, str] = {}
    for path in iter_python_files([Path(p) for p in paths], config):
        relpath = _relpath(path)
        if not config.is_excluded(relpath):
            sources[relpath] = path.read_bytes().decode("utf-8")
    report = LintReport(files_checked=len(sources))
    report.diagnostics, report.suppressed = _lint(
        sources, config, strict=config.strict if strict is None else strict
    )
    return report
