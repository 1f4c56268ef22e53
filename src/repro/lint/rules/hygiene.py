"""API-hygiene rules: mutable defaults, bare except, ``__all__`` drift,
and stale suppression comments."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import ModuleContext, Rule

__all__ = [
    "MutableDefaultRule",
    "BareExceptRule",
    "AllDriftRule",
    "UnusedSuppressionRule",
]

_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


class MutableDefaultRule(Rule):
    """API001: no mutable default arguments.

    A ``def f(history=[])`` default is evaluated once and shared across
    calls — simulation state bleeds between repetitions, which is both a
    bug factory and a reproducibility hazard.  Default to ``None`` and
    create the container inside the function.
    """

    id = "API001"
    name = "mutable-default"
    description = "mutable default argument; default to None and build inside"

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    label = getattr(node, "name", "<lambda>")
                    yield module.diagnostic(
                        self,
                        default,
                        f"mutable default argument in `{label}`; use None "
                        "and construct inside the function",
                    )


class BareExceptRule(Rule):
    """API002: no bare ``except:`` clauses.

    A bare except swallows ``KeyboardInterrupt``/``SystemExit`` and every
    internal-invariant error (:class:`repro.errors.SimulationError`) alike,
    converting loud reproducibility failures into silent bad data.  Catch
    :class:`repro.errors.ReproError` or a concrete exception type.
    """

    id = "API002"
    name = "bare-except"
    description = "bare `except:`; catch a concrete exception type"

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield module.diagnostic(
                    self,
                    node,
                    "bare `except:` swallows SystemExit and internal "
                    "invariant errors; name an exception type",
                )


def _literal_all(tree: ast.Module) -> Optional[ast.Assign]:
    """The top-level ``__all__ = [...]`` assignment, if literal."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__all__"
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return node
    return None


def _top_level_bindings(tree: ast.Module) -> Set[str]:
    """Names bound at module top level (defs, classes, assigns, imports)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # Common guarded-definition patterns still bind names.
            names |= _top_level_bindings(ast.Module(body=node.body, type_ignores=[]))
    return names


def _public_defs(tree: ast.Module) -> List[ast.stmt]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


class AllDriftRule(Rule):
    """API003: keep ``__all__`` present and in sync with the module body.

    Three drift modes: a public module with no ``__all__`` at all, an
    ``__all__`` entry that no longer exists (breaks ``import *`` and the
    ``test_public_api`` export checks), and a public function/class that was
    added without being exported.  ``__init__.py`` re-export lists are only
    checked for dangling names; private modules (leading underscore) and
    ``__main__.py`` are exempt.
    """

    id = "API003"
    name = "all-drift"
    description = "__all__ missing or out of sync with the module's public defs"
    exempt = ("conftest.py", "setup.py")

    @staticmethod
    def _has_module_getattr(tree: ast.Module) -> bool:
        """Whether the module defines PEP 562 ``__getattr__`` (lazy exports)."""
        return any(
            isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
            for node in tree.body
        )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        basename = module.module_basename
        # Private modules and script entry points have no export surface;
        # __init__.py is NOT exempt (its re-export list can dangle).
        if basename.startswith("_") and basename != "__init__.py":
            return
        if module.in_paths(self.exempt):
            return
        assign = _literal_all(module.tree)
        if assign is None:
            if module.is_dunder_init:
                return
            if any(
                isinstance(node, ast.ImportFrom)
                and any(alias.name == "*" for alias in node.names)
                for node in module.tree.body
            ):
                return  # star re-exporter; cannot be checked statically
            public = _public_defs(module.tree)
            if public:
                yield module.diagnostic(
                    self,
                    public[0],
                    "module defines public names but no __all__; declare its "
                    "export surface",
                )
            return

        exported = [
            element.value
            for element in assign.value.elts
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        ]
        bound = _top_level_bindings(module.tree)
        if not self._has_module_getattr(module.tree):
            # A PEP 562 module __getattr__ can serve any exported name at
            # runtime, so unbound entries are legitimate lazy exports.
            for name in exported:
                if name not in bound:
                    yield module.diagnostic(
                        self,
                        assign,
                        f"__all__ exports `{name}` but the module never binds it",
                    )
        if module.is_dunder_init:
            return
        exported_set = set(exported)
        for node in _public_defs(module.tree):
            if node.name not in exported_set:
                yield module.diagnostic(
                    self,
                    node,
                    f"public `{node.name}` is missing from __all__ "
                    "(or rename with a leading underscore)",
                )


class UnusedSuppressionRule(Rule):
    """SUP001: ``# reprolint: disable=RULE`` comments must suppress something.

    A suppression that matches no finding is dead weight: either the
    underlying violation was fixed (delete the comment) or the rule id /
    line placement is wrong (the violation is being reported anyway and
    the comment gives false confidence).  Detection has to run *after*
    every rule, ``finish`` included — a comment may exist solely to
    silence an RNG010 finding — so the runner emits these diagnostics itself
    from suppression-usage accounting; this class only anchors the rule
    id in :data:`repro.lint.rules.RULES` (``--select``, ``--list-rules``).
    A comment naming only rules that did not run (left out of
    ``--select``) is not reported.
    """

    id = "SUP001"
    name = "unused-suppression"
    description = (
        "suppression comment matches no finding; delete it or fix its "
        "rule id/placement"
    )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        # Runner-emitted after every rule; nothing to do per module.
        return iter(())
