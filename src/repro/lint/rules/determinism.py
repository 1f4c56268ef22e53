"""Determinism rules.

Bit-for-bit replay of the paper's Fig. 4/6 curves and the Lemma 4-7
empirical checks requires that simulator hot paths never read wall-clock
dates or entropy (DET001; clock reads are OBS001's everywhere outside
``repro/obs``), never let hash/insertion order of a ``set`` leak into
results (DET002; string hashing is randomised per process unless
``PYTHONHASHSEED`` is pinned, so set order is not stable across runs), and
that a ``spawn`` worker sees the same module state as the parent (PERF002).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import BannedNameRule, ModuleContext, Rule, register_rule

__all__ = ["WallClockRule", "SetIterationRule", "GlobalRebindRule"]


@register_rule
class WallClockRule(BannedNameRule):
    """DET001: no wall-clock dates or entropy in simulator hot paths.

    Scoped (via the ``paths`` option) to ``repro/sim`` and ``repro/core``:
    a ``datetime.now()`` or ``os.urandom()`` in a hot path silently turns
    a deterministic replay into a machine-dependent one.  Process-clock
    reads (``time.time``, ``time.perf_counter``) are OBS001's: it bans
    them everywhere outside the ``repro/obs`` clock facade.
    """

    id = "DET001"
    name = "wall-clock"
    description = (
        "wall-clock dates and entropy (datetime.now, os.urandom, uuid, "
        "secrets) are banned in simulator hot paths"
    )
    default_severity = Severity.ERROR
    default_options = {"paths": ["repro/sim/*", "repro/core/*"]}
    scope_option = "paths"
    banned_names = (
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


@register_rule
class GlobalRebindRule(Rule):
    """PERF002: module globals are not rebound after import.

    Sweep workers start with the ``spawn`` method: each one re-imports
    every module and sees a global as import left it, never as the parent
    rebound it.  A ``global`` statement therefore lets the parent and its
    workers compute on different state, and serial and parallel sweeps
    stop being byte-identical.  The ``allow`` option lists the modules
    that hold process-local state by design: the ``repro.obs`` recorder
    facade (each worker installs its own) and the storage fault hook.
    """

    id = "PERF002"
    name = "global-rebind"
    description = (
        "`global` statement rebinds module state after import; spawn "
        "workers re-import the module and never see the new value"
    )
    default_severity = Severity.ERROR
    default_options = {"allow": ["repro/obs/__init__.py", "repro/storage.py"]}

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if module.in_paths(module.option(self, "allow")):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Global):
                names = ", ".join(f"`{name}`" for name in node.names)
                yield module.diagnostic(
                    self,
                    node,
                    f"`global` rebinds module state ({names}) after import; "
                    "spawn workers re-import and see the pristine value — "
                    "pass the state explicitly",
                )
