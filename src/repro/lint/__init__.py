"""reprolint — determinism & paper-invariant linter.

The reproduction's headline promise is bit-for-bit replayability: every
stochastic component draws from a named :class:`repro.rng.StreamFactory`
stream, simulator hot paths never read wall-clock time, and the paper's
derived constants (``kappa``, ``beta_x``, ``c2``) live in exactly one
module each.  This package *enforces* that contract statically, in one
cold, serial pass (:mod:`repro.lint.runner`): each file is parsed once and
every rule checks its AST.  Six rules ban dotted names by path scope
through one alias-resolving matcher
(:class:`repro.lint.registry.BannedNameRule`); RNG010 collects literal
stream names from every file and reports the collisions once, after the
last file.

Supporting machinery: a plugin rule registry
(:mod:`repro.lint.registry`) with per-rule severities and options,
``# reprolint: disable=RULE`` suppressions with unused-suppression
accounting (:mod:`repro.lint.suppress`) — the one way to accept a
finding — ``[tool.reprolint]`` pyproject configuration
(:mod:`repro.lint.config`), and a CLI (:mod:`repro.lint.cli`) exposed as
both ``reprolint`` and ``addc-repro lint``.

The built-in rule pack lives in :mod:`repro.lint.rules`; see
``docs/LINTING.md`` for the rule-by-rule mapping to the paper's
reproducibility needs.
"""

from repro.lint.config import LintConfig, path_matches
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import (
    ModuleContext,
    Rule,
    all_rules,
    get_rule,
    module_name_for,
    register_rule,
)
from repro.lint.runner import LintReport, lint_paths, lint_source

__all__ = [
    "Diagnostic",
    "Severity",
    "LintConfig",
    "path_matches",
    "Rule",
    "ModuleContext",
    "register_rule",
    "all_rules",
    "get_rule",
    "module_name_for",
    "LintReport",
    "lint_paths",
    "lint_source",
]
