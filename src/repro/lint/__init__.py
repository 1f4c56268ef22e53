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

Supporting machinery: the rule pack as one tuple
(:data:`repro.lint.rules.RULES`), each rule carrying its path scopes as
class constants; ``# reprolint: disable=RULE`` suppressions with
unused-suppression accounting (:mod:`repro.lint.suppress`) — the one way
to accept a finding, since every finding fails the run; and a CLI
(:mod:`repro.lint.cli`) exposed as both ``reprolint`` and
``addc-repro lint``.

The rule-by-rule mapping to the paper's reproducibility needs is in
``docs/LINTING.md``.
"""

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import ModuleContext, Rule, module_name_for, path_matches
from repro.lint.rules import RULES
from repro.lint.runner import LintReport, lint_paths, lint_source

__all__ = [
    "Diagnostic",
    "path_matches",
    "Rule",
    "RULES",
    "ModuleContext",
    "module_name_for",
    "LintReport",
    "lint_paths",
    "lint_source",
]
