"""Two-phase lint driver: per-file analysis, then the project tier.

Phase one treats every file independently: parse, run the per-file
rules, extract the :class:`~repro.lint.facts.ModuleFacts` summary, and
collect suppression comments.  Every run is cold and serial: each file
is read and analyzed once, in sorted order.

Phase two assembles the facts into a
:class:`~repro.lint.project.ProjectContext` and runs the whole-program
rules (RNG010/011/012, PERF002, DET003) over it.  Then
suppression-usage accounting emits SUP001 for dead suppression comments
(``--strict``), and finally findings are split against the committed
baseline (ratchet policy; see :mod:`repro.lint.baseline`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.facts import ModuleFacts, extract_facts, module_name_for
from repro.lint.project import ProjectContext, project_rules
from repro.lint.registry import ModuleContext, all_rules
from repro.lint.suppress import SuppressionIndex, parse_suppressions

__all__ = [
    "LintReport",
    "FileAnalysis",
    "iter_python_files",
    "analyze_source",
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
    #: Findings filtered out because the committed baseline covers them.
    baselined: int = 0
    #: Baseline entries that matched nothing — fixed findings awaiting
    #: a ratchet (``--update-baseline``).
    stale_baseline: List[BaselineEntry] = field(default_factory=list)

    def worst_severity(self) -> Optional[Severity]:
        """Highest severity present, or None when the run is clean."""
        if not self.diagnostics:
            return None
        return max(diagnostic.severity for diagnostic in self.diagnostics)

    def failed(self, fail_on: Severity) -> bool:
        """Whether any finding is at or above the ``fail_on`` threshold."""
        worst = self.worst_severity()
        return worst is not None and worst >= fail_on


@dataclass
class FileAnalysis:
    """Phase-one products for one file."""

    relpath: str
    facts: ModuleFacts
    #: Per-file-tier diagnostics *before* suppression filtering.
    diagnostics: List[Diagnostic] = field(default_factory=list)
    suppressions: SuppressionIndex = field(default_factory=SuppressionIndex)


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


def _file_rules() -> List[type]:
    return [
        rule_class
        for rule_class in all_rules()
        if getattr(rule_class, "tier", "file") != "project"
    ]


def analyze_source(source: str, relpath: str, config: LintConfig) -> FileAnalysis:
    """Phase one for a single module: parse, per-file rules, facts."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return FileAnalysis(
            relpath=relpath,
            facts=ModuleFacts(relpath=relpath, module=module_name_for(relpath)),
            diagnostics=[
                Diagnostic(
                    rule_id=PARSE_RULE_ID,
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    severity=Severity.ERROR,
                    message=f"syntax error: {exc.msg}",
                )
            ],
        )
    module = ModuleContext(relpath=relpath, source=source, tree=tree, config=config)
    found: List[Diagnostic] = []
    for rule_class in _file_rules():
        if not config.rule_enabled(rule_class.id):
            continue
        found.extend(rule_class().check(module))
    found.sort(key=lambda d: (d.line, d.col, d.rule_id))
    return FileAnalysis(
        relpath=relpath,
        facts=extract_facts(relpath, tree),
        diagnostics=found,
        suppressions=parse_suppressions(source),
    )


def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
    strict: Optional[bool] = None,
) -> List[Diagnostic]:
    """Lint one module given as a string, through the *full* pipeline.

    Both tiers run — the whole-program rules see a single-module project
    — so every registered rule is exercisable from a string fixture.
    Suppression comments are honoured; ``strict`` (default: the config's
    ``strict`` flag) additionally reports unused suppressions.  Returns
    the surviving diagnostics sorted by location.
    """
    config = config or LintConfig()
    analysis = analyze_source(source, path, config)
    diagnostics, _ = _filter_and_project(
        {path: analysis},
        config,
        strict=config.strict if strict is None else strict,
    )
    return diagnostics


def _filter_and_project(
    analyses: Dict[str, FileAnalysis], config: LintConfig, strict: bool
) -> Tuple[List[Diagnostic], int]:
    """Phase two: suppression filtering, project rules, SUP001.

    Returns ``(diagnostics, suppressed_count)`` with diagnostics sorted.
    """
    suppressed = 0
    kept: List[Diagnostic] = []
    for relpath in sorted(analyses):
        analysis = analyses[relpath]
        for diagnostic in analysis.diagnostics:
            if diagnostic.rule_id == PARSE_RULE_ID:
                kept.append(diagnostic)  # a file that cannot parse cannot opt out
            elif analysis.suppressions.is_suppressed(
                diagnostic.rule_id, diagnostic.line
            ):
                suppressed += 1
            else:
                kept.append(diagnostic)

    project = ProjectContext.build(
        [analysis.facts for analysis in analyses.values()], config
    )
    by_relpath = {analysis.relpath: analysis for analysis in analyses.values()}
    for rule_class in project_rules():
        if not config.rule_enabled(rule_class.id):
            continue
        for diagnostic in rule_class().check_project(project):
            analysis = by_relpath.get(diagnostic.path)
            if analysis is not None and analysis.suppressions.is_suppressed(
                diagnostic.rule_id, diagnostic.line
            ):
                suppressed += 1
            else:
                kept.append(diagnostic)

    if strict and config.rule_enabled(SUPPRESSION_RULE_ID):
        severity = config.severity_for(SUPPRESSION_RULE_ID, Severity.WARNING)
        for relpath in sorted(analyses):
            for entry in analyses[relpath].suppressions.unused():
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


def lint_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    *,
    strict: Optional[bool] = None,
    baseline_path: Optional[Path] = None,
    update_baseline: bool = False,
) -> LintReport:
    """Lint files and directories; the main entry point behind the CLI.

    ``baseline_path`` filters known findings; with ``update_baseline`` the
    file is rewritten to cover exactly the current findings (ratchet).
    """
    config = config or LintConfig()
    report = LintReport()

    files: Dict[str, Path] = {}
    for path in iter_python_files([Path(p) for p in paths], config):
        relpath = _relpath(path)
        if not config.is_excluded(relpath):
            files[relpath] = path

    analyses = {
        relpath: analyze_source(
            files[relpath].read_bytes().decode("utf-8"), relpath, config
        )
        for relpath in sorted(files)
    }
    diagnostics, report.suppressed = _filter_and_project(
        analyses, config, strict=config.strict if strict is None else strict
    )
    report.files_checked = len(files)

    if baseline_path is not None:
        baseline = Baseline.load(baseline_path)
        if update_baseline:
            baseline = baseline.updated_from(diagnostics)
            baseline.save(baseline_path)
        diagnostics, report.baselined, report.stale_baseline = baseline.split(
            diagnostics
        )

    report.diagnostics = diagnostics
    return report
