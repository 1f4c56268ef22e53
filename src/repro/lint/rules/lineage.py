"""RNG010: one literal stream name, one requesting function.

The bit-identity contract hangs on :class:`repro.rng.StreamFactory`
lineages being collision-free *across the whole program*: two components
that request ``stream("x")`` from the same factory draw **identical**
values, silently correlating what the model treats as independent
randomness.  No single file shows that, so the rule collects every
``.stream("<literal>")`` site in :meth:`~StreamCollisionRule.check` and
groups them by name in :meth:`~StreamCollisionRule.finish`, once per run.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterator, List, Tuple

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import ModuleContext, Rule, module_name_for

__all__ = ["StreamCollisionRule"]

_MODULE_SCOPE = "<module>"


def _stream_sites(node: ast.AST, scope: str) -> Iterator[Tuple[str, str, ast.Call]]:
    """``(name, enclosing qualname, call)`` of each ``.stream("<literal>")``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == _MODULE_SCOPE else f"{scope}.{child.name}"
            yield from _stream_sites(child, inner)
            continue
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "stream"
            and child.args
            and isinstance(child.args[0], ast.Constant)
            and isinstance(child.args[0].value, str)
        ):
            yield child.args[0].value, scope, child
        yield from _stream_sites(child, scope)


class StreamCollisionRule(Rule):
    """RNG010: one literal stream name, requested from several functions.

    A name requested from two different functions is reported once,
    anchored at its first site (by path, then line).  Re-requests inside
    one function are the documented re-request pattern and stay legal.
    A deliberate mirror (an oracle that must see the engine's exact
    draws) carries a ``# reprolint: disable=RNG010`` comment at the
    anchor, with its justification.
    """

    id = "RNG010"
    name = "stream-collision"
    description = (
        "same literal stream name requested from two functions; "
        "colliding lineages draw identical values"
    )
    allow = ("repro/rng/*",)

    def __init__(self) -> None:
        #: name -> [(function label, site diagnostic without a message)]
        self._sites: Dict[str, List[Tuple[str, Diagnostic]]] = {}

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if module.in_paths(self.allow):
            return iter(())
        module_name = module_name_for(module.relpath)
        for name, function, call in _stream_sites(module.tree, _MODULE_SCOPE):
            self._sites.setdefault(name, []).append(
                (f"{module_name}:{function}", module.diagnostic(self, call, ""))
            )
        return iter(())

    def finish(self) -> Iterator[Diagnostic]:
        for stream_name in sorted(self._sites):
            sites = self._sites[stream_name]
            functions = sorted({function for function, _ in sites})
            if len(functions) < 2:
                continue
            anchor = min(
                (site for _, site in sites), key=lambda d: (d.path, d.line, d.col)
            )
            yield dataclasses.replace(
                anchor,
                message=(
                    f"stream name {stream_name!r} is requested from "
                    f"{len(functions)} functions ({', '.join(functions)}); "
                    "colliding lineages draw identical values from a shared "
                    "factory — derive distinct names or route one through "
                    "the other"
                ),
            )
