"""Paper-invariant hygiene rules.

The delay/capacity analysis hangs off a handful of derived constants — the
PCR factor ``kappa`` (Eq. 16), the packing function ``beta_x`` (Lemma 4),
the hexagon constants inside ``c2`` — all computed in exactly one place
(``repro/core/pcr.py`` and ``repro/core/packing.py``).  INV001 catches
re-derived magic-float copies of those constants drifting into other
modules; INV002 catches exact float ``==``/``!=`` comparisons in the
geometry/spectrum/core layers, where an ulp of path-loss noise silently
flips a branch.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import ModuleContext, Rule

__all__ = ["PaperConstantRule", "FloatEqualityRule"]

# Known paper constants: name -> (value, where it must come from).
_PAPER_CONSTANTS = {
    "sqrt(3)": (1.7320508075688772, "math.sqrt(3.0)"),
    "sqrt(3)/2 (hexagon row spacing in c2)": (
        0.8660254037844386,
        "math.sqrt(3.0) / 2.0 via repro.core.pcr.c2_constant",
    ),
    "2*pi/sqrt(3) (beta_x leading coefficient, Lemma 4)": (
        3.6275987284684357,
        "repro.core.packing.beta",
    ),
    "pi": (3.141592653589793, "math.pi"),
}


class PaperConstantRule(Rule):
    """INV001: paper constants must not be re-derived as magic floats.

    ``kappa``/``beta_x``/``c2`` and their ingredients come from
    ``repro.core.pcr`` and ``repro.core.packing``; a hand-copied
    ``3.6275987`` elsewhere goes stale the moment the zeta-bound variant
    changes.  Matching is by value within a relative tolerance, so truncated
    copies (``1.7320508``) are caught too.
    """

    id = "INV001"
    name = "paper-constant"
    description = (
        "magic-float copy of a paper constant; import it from "
        "repro.core.pcr / repro.core.packing"
    )
    # The rule's own module hosts the deny-list values by necessity.
    allow = (
        "repro/core/pcr.py",
        "repro/core/packing.py",
        "repro/lint/rules/invariants.py",
    )
    tolerance = 1e-6

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if module.in_paths(self.allow):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Constant):
                continue
            if not isinstance(node.value, float):
                continue
            for name, (value, source) in _PAPER_CONSTANTS.items():
                if abs(node.value - value) <= self.tolerance * max(1.0, abs(value)):
                    yield module.diagnostic(
                        self,
                        node,
                        f"float literal {node.value!r} re-derives {name}; "
                        f"use {source} instead",
                    )
                    break


def _is_floatish(node: ast.AST) -> bool:
    """Whether ``node`` is syntactically a float expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_floatish(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    return False


class FloatEqualityRule(Rule):
    """INV002: no exact float ``==``/``!=`` in geometry/spectrum/core.

    Path-loss powers, SIR ratios and packing bounds accumulate rounding
    error; exact comparison against a float literal flips branches on the
    last ulp.  Use :func:`math.isclose`, the helpers in
    :mod:`repro.core.numeric` (``close`` / ``is_zero``), or suppress with a
    written justification where an exact-zero guard is intentional.
    """

    id = "INV002"
    name = "float-equality"
    description = (
        "exact float ==/!= comparison; use math.isclose or "
        "repro.core.numeric helpers"
    )
    paths = ("repro/geometry/*", "repro/spectrum/*", "repro/core/*")

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if not module.in_paths(self.paths):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_floatish(operands[index]) or _is_floatish(operands[index + 1]):
                    yield module.diagnostic(
                        self,
                        node,
                        "exact float equality comparison; use "
                        "repro.core.numeric.close / is_zero (or justify and "
                        "suppress an intentional exact-zero guard)",
                    )
                    break
