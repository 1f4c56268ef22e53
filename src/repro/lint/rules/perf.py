"""Performance / parallel-execution rules.

The sweep supervisor starts workers with the ``spawn`` method, so
everything submitted to a pool must be picklable — in particular the
worker callable itself.  Lambdas and nested functions pickle by qualified
name and fail at runtime (often only on the platform where ``spawn`` is
the default), so PERF001 catches them statically.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import ModuleContext, Rule, register_rule

__all__ = ["SpawnPicklableWorkerRule"]

_PARALLEL_MODULES = ("concurrent.futures", "multiprocessing")
_SUBMIT_METHODS = ("submit", "map", "apply", "apply_async", "map_async", "starmap")


def _uses_parallel_imports(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _PARALLEL_MODULES or alias.name.startswith(
                    tuple(prefix + "." for prefix in _PARALLEL_MODULES)
                ):
                    return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module in _PARALLEL_MODULES or module.startswith(
                tuple(prefix + "." for prefix in _PARALLEL_MODULES)
            ):
                return True
    return False


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names bound by ``def`` somewhere other than module top level."""
    top_level = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    nested: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name not in top_level:
                nested.add(node.name)
    return nested


@register_rule
class SpawnPicklableWorkerRule(Rule):
    """PERF001: pool worker callables must be top-level module functions.

    In modules that import ``concurrent.futures`` or ``multiprocessing``,
    flags ``pool.submit(f, ...)`` / ``pool.map(f, ...)`` (and the
    ``multiprocessing.Pool`` equivalents) where ``f`` is a lambda or a
    name defined by a nested ``def``: neither pickles under the ``spawn``
    start method, which is the only start method the sweep supervisor
    uses (fork would silently inherit parent import state and
    break the bit-identity contract).
    """

    id = "PERF001"
    name = "spawn-picklable-worker"
    description = (
        "worker callables handed to process pools must be top-level module "
        "functions (picklable under the spawn start method)"
    )
    default_severity = Severity.ERROR
    default_options: dict = {}

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if not _uses_parallel_imports(module.tree):
            return
        nested = _nested_function_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS
            ):
                continue
            worker = node.args[0]
            if isinstance(worker, ast.Lambda):
                yield module.diagnostic(
                    self,
                    node,
                    f"`.{func.attr}(lambda, ...)`: lambdas do not pickle "
                    "under spawn; define a top-level worker function",
                )
            elif isinstance(worker, ast.Name) and worker.id in nested:
                yield module.diagnostic(
                    self,
                    node,
                    f"`.{func.attr}({worker.id}, ...)`: `{worker.id}` is a "
                    "nested function and does not pickle under spawn; move "
                    "it to module top level",
                )
