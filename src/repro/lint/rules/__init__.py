"""The built-in reprolint rule pack.

Importing this package registers every rule with
:mod:`repro.lint.registry`.  Third-party extensions follow the same
pattern: subclass :class:`repro.lint.registry.Rule`, decorate with
:func:`repro.lint.registry.register_rule`, and import the module before
running the linter.
"""

from repro.lint.rules import (
    determinism,
    hygiene,
    invariants,
    lineage,
    observability,
    rng,
    robustness,
)

__all__ = [
    "rng",
    "determinism",
    "invariants",
    "hygiene",
    "lineage",
    "observability",
    "robustness",
]
