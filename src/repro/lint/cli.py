"""The ``reprolint`` command line (also ``addc-repro lint``).

Examples
--------
``reprolint src/``
    Lint a tree with config discovered from ``pyproject.toml``.  Every run
    analyzes every file, serially.
``reprolint --format json src/``
    Machine-readable findings and summary counts.
``reprolint --strict src/``
    Additionally report suppression comments that silence nothing.
``reprolint --list-rules``
    Print the rule pack with ids and default severities.

Exit codes: 0 clean (no finding at/above the ``fail_on`` threshold),
1 findings, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Severity
from repro.lint.registry import all_rules
from repro.lint.runner import LintReport, lint_paths

__all__ = ["configure_parser", "run", "build_parser", "main"]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options; shared with the ``addc-repro lint`` subcommand."""
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="pyproject.toml to read [tool.reprolint] from (default: discover upward)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run exclusively",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--exclude",
        default=None,
        metavar="PATTERNS",
        help="comma-separated glob patterns replacing the config exclude "
        "list ('' lints everything; e.g. for the relaxed benchmarks profile)",
    )
    parser.add_argument(
        "--fail-on",
        choices=tuple(str(level) for level in Severity),
        default=None,
        help="exit non-zero at/above this severity (default: config, else warning)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also report unused suppression comments (SUP001)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule pack and exit"
    )
    parser.set_defaults(handler=run)


def _load_config(args: argparse.Namespace) -> LintConfig:
    """The effective config: pyproject, then command-line overrides."""
    if args.config is not None:
        config = LintConfig.from_pyproject(Path(args.config))
    else:
        start = Path(args.paths[0]) if args.paths else Path.cwd()
        start_dir = start if start.is_dir() else start.parent
        config = LintConfig.discover(start_dir if start.exists() else Path.cwd())
    if args.select:
        config.select = [rule.strip() for rule in args.select.split(",") if rule.strip()]
    if args.ignore:
        config.ignore += [rule.strip() for rule in args.ignore.split(",") if rule.strip()]
    if args.exclude is not None:
        config.exclude = [
            pattern.strip() for pattern in args.exclude.split(",") if pattern.strip()
        ]
    if args.fail_on:
        config.fail_on = Severity.from_name(args.fail_on)
    if args.strict:
        config.strict = True
    return config


def _print_report(report: LintReport, fmt: str, fail_on: Severity) -> None:
    if fmt == "json":
        payload = {
            "diagnostics": [d.as_dict() for d in report.diagnostics],
            "files_checked": report.files_checked,
            "suppressed": report.suppressed,
            "fail_on": str(fail_on),
        }
        print(json.dumps(payload, indent=2))
        return
    for diagnostic in report.diagnostics:
        print(diagnostic.format_human())
    summary = (
        f"{len(report.diagnostics)} finding(s) in {report.files_checked} file(s)"
        f" ({report.suppressed} suppressed)"
    )
    print(("" if not report.diagnostics else "\n") + summary)


def run(args: argparse.Namespace) -> int:
    """Execute a lint run for parsed ``args``; returns the exit code."""
    if args.list_rules:
        for rule_class in all_rules():
            print(rule_class.summary_row())
        return 0
    try:
        known = {rule_class.id for rule_class in all_rules()}
        requested = [
            rule.strip()
            for flag in (args.select, args.ignore)
            if flag
            for rule in flag.split(",")
            if rule.strip()
        ]
        unknown = sorted(set(requested) - known)
        if unknown:
            print(
                f"error: unknown rule id(s): {', '.join(unknown)} "
                f"(see --list-rules)",
                file=sys.stderr,
            )
            return 2
        config = _load_config(args)
        missing = [path for path in args.paths if not Path(path).exists()]
        if missing:
            print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
            return 2
        report = lint_paths(
            [Path(path) for path in args.paths], config, strict=config.strict
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(report, args.format, config.fail_on)
    return 1 if report.failed(config.fail_on) else 0


def build_parser() -> argparse.ArgumentParser:
    """Stand-alone ``reprolint`` parser."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    configure_parser(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point."""
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except BrokenPipeError:  # e.g. `reprolint --format json | head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
