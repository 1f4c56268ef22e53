"""The ``reprolint`` command line (also ``addc-repro lint``).

Examples
--------
``reprolint src/``
    Lint a tree with every rule.  Every run analyzes every file, serially.
``reprolint --select RNG001,API001 benchmarks/ examples/``
    Run only the listed rules (CI's relaxed profile for scripts).
``reprolint --list-rules``
    Print the rule pack with ids and descriptions.

Exit codes: 0 clean, 1 findings (every finding fails), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.lint.rules import RULES
from repro.lint.runner import lint_paths

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``reprolint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run exclusively",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule pack and exit"
    )
    return parser


def _run(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_class in RULES:
            print(rule_class.summary_row())
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    select = None
    if args.select:
        select = [rule.strip() for rule in args.select.split(",") if rule.strip()]
    try:
        report = lint_paths([Path(path) for path in args.paths], select)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for diagnostic in report.diagnostics:
        print(diagnostic.format_human())
    summary = (
        f"{len(report.diagnostics)} finding(s) in {report.files_checked} file(s)"
        f" ({report.suppressed} suppressed)"
    )
    print(("" if not report.diagnostics else "\n") + summary)
    return 1 if report.diagnostics else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point; returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:  # e.g. `reprolint src/ | head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
