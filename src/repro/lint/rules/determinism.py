"""Determinism rules.

Bit-for-bit replay of the paper's Fig. 4/6 curves and the Lemma 4-7
empirical checks requires that simulator hot paths never read wall-clock
time or entropy (DET001) and never let hash/insertion order of a ``set``
leak into results (DET002; string hashing is randomised per process unless
``PYTHONHASHSEED`` is pinned, so set order is not stable across runs).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import BannedNameRule, ModuleContext, Rule, register_rule

__all__ = ["CLOCK_READS", "WallClockRule", "SetIterationRule"]

#: Process-clock reads: banned in hot paths (DET001), outside the clock
#: facade (OBS001), and in ``while`` tests as deadline polls (ROB002).
CLOCK_READS = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
)


@register_rule
class WallClockRule(BannedNameRule):
    """DET001: no wall-clock/entropy reads in simulator hot paths.

    Scoped (via the ``paths`` option) to ``repro/sim`` and ``repro/core``:
    a ``time.time()`` in a metrics hot path silently turns a deterministic
    replay into a machine-dependent one.  Wall-clock reads for *reporting*
    belong outside these packages (e.g. ``repro/experiments``).
    """

    id = "DET001"
    name = "wall-clock"
    description = (
        "wall-clock/entropy reads (time.time, datetime.now, os.urandom, ...) "
        "are banned in simulator hot paths"
    )
    default_severity = Severity.ERROR
    default_options = {"paths": ["repro/sim/*", "repro/core/*"]}
    scope_option = "paths"
    banned_names = CLOCK_READS + (
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    )
    banned_modules = ("secrets",)
    reason = (
        "is non-deterministic in a simulator hot path; thread slot "
        "counters / injected clocks through instead"
    )


def _set_expr(node: ast.AST) -> Optional[str]:
    """Describe ``node`` if it builds a set, else None."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return f"`{node.func.id}(...)`"
    return None


@register_rule
class SetIterationRule(Rule):
    """DET002: don't feed unordered ``set`` iteration into results.

    Flags ``for`` loops and ordered constructions (``list(set(...))``,
    ``tuple(...)``, ``enumerate(...)``, list/dict/generator comprehensions)
    that iterate a freshly built set.  Wrap in ``sorted(...)`` to pin the
    order.  Iterating a *variable* that happens to hold a set cannot be seen
    statically and is not flagged — name such variables clearly and sort at
    the iteration site.
    """

    id = "DET002"
    name = "set-iteration"
    description = (
        "iteration order of sets is not reproducible; wrap in sorted(...) "
        "before feeding results"
    )
    default_severity = Severity.WARNING
    default_options = {"order_sensitive_calls": ["list", "tuple", "enumerate"]}

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        order_sensitive = set(module.option(self, "order_sensitive_calls"))
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                described = _set_expr(node.iter)
                if described:
                    yield module.diagnostic(
                        self,
                        node,
                        f"for-loop iterates {described}; wrap in sorted(...) "
                        "for a reproducible order",
                    )
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    described = _set_expr(generator.iter)
                    if described:
                        yield module.diagnostic(
                            self,
                            node,
                            f"comprehension iterates {described} into an "
                            "ordered result; wrap in sorted(...)",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in order_sensitive and node.args:
                    described = _set_expr(node.args[0])
                    if described:
                        yield module.diagnostic(
                            self,
                            node,
                            f"`{node.func.id}(...)` over {described} depends on "
                            "set order; use sorted(...) instead",
                        )
