"""reprolint — whole-program determinism & paper-invariant linter.

The reproduction's headline promise is bit-for-bit replayability: every
stochastic component draws from a named :class:`repro.rng.StreamFactory`
stream, simulator hot paths never read wall-clock time, and the paper's
derived constants (``kappa``, ``beta_x``, ``c2``) live in exactly one
module each.  This package *enforces* that contract statically, in two
tiers:

* **per-file rules** over each module's AST (the v1 pack), six of which
  ban dotted names by path scope through one alias-resolving matcher
  (:class:`repro.lint.registry.BannedNameRule`);
* **whole-program rules** over extracted :mod:`repro.lint.facts` — RNG
  stream-lineage dataflow (RNG010/011/012), interprocedural
  spawn-safety (PERF002), and cross-module merge-feed ordering (DET003)
  — resolved through imports by :mod:`repro.lint.project`.

Every run is one cold, serial pass: parse each file, run the per-file
rules, extract facts, then run the project tier
(:mod:`repro.lint.runner`).

Supporting machinery: a plugin rule registry
(:mod:`repro.lint.registry`) with per-rule severities and options,
``# reprolint: disable=RULE`` suppressions with unused-suppression
accounting (:mod:`repro.lint.suppress`), ``[tool.reprolint]`` pyproject
configuration (:mod:`repro.lint.config`), a committed finding baseline
with a ratchet policy (:mod:`repro.lint.baseline`), and a CLI
(:mod:`repro.lint.cli`) exposed as both ``reprolint`` and
``addc-repro lint``.

The built-in rule pack lives in :mod:`repro.lint.rules`; see
``docs/LINTING.md`` for the rule-by-rule mapping to the paper's
reproducibility needs.
"""

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.config import LintConfig, path_matches
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.facts import ModuleFacts, extract_facts, module_name_for
from repro.lint.project import ProjectContext, ProjectRule, project_rules
from repro.lint.registry import ModuleContext, Rule, all_rules, get_rule, register_rule
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
    "ProjectRule",
    "ProjectContext",
    "project_rules",
    "ModuleFacts",
    "extract_facts",
    "module_name_for",
    "Baseline",
    "BaselineEntry",
    "LintReport",
    "lint_paths",
    "lint_source",
]
