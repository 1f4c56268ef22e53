"""Whole-program analysis context and the project-rule tier.

Per-file rules see one :class:`~repro.lint.registry.ModuleContext`;
project rules see a :class:`ProjectContext` — every module's extracted
:class:`~repro.lint.facts.ModuleFacts` and a resolver that follows imports (including package ``__init__`` re-exports) to the
defining module.  Project rules subclass :class:`ProjectRule` and are
registered through the ordinary rule registry, so ``--select``,
``--ignore``, severity overrides, suppressions, and ``--list-rules`` all
work uniformly across both tiers; the runner simply dispatches on the
tier marker.

Resolution scope (deliberate, documented limits): plain-name and
module-attribute calls are followed (``helper()``, ``mod.helper()``,
``pkg.mod.helper()`` and re-exports); calls through ``self``/instance
attributes and dynamically computed callables are not.  Rules that walk
the call graph therefore under-approximate — they never flag code they
cannot see, and what they do flag is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.config import LintConfig, path_matches
from repro.lint.diagnostics import Diagnostic
from repro.lint.facts import FunctionFacts, ModuleFacts
from repro.lint.registry import Rule

__all__ = ["ProjectContext", "ProjectRule", "project_rules"]

_RESOLVE_DEPTH = 8


@dataclass
class ProjectContext:
    """Everything a project rule knows about the program under analysis."""

    modules: Dict[str, ModuleFacts]
    config: LintConfig = field(default_factory=LintConfig)

    @classmethod
    def build(cls, all_facts: List[ModuleFacts], config: Optional[LintConfig] = None) -> "ProjectContext":
        modules = {facts.module: facts for facts in sorted(all_facts, key=lambda f: f.relpath)}
        return cls(modules=modules, config=config or LintConfig())

    # ------------------------------------------------------------------ #
    # Name resolution                                                     #
    # ------------------------------------------------------------------ #

    def resolve_callable(
        self, module: str, dotted: str, _depth: int = 0
    ) -> Optional[Tuple[str, str]]:
        """Resolve a called name written in ``module`` to its defining
        ``(module, function qualname)``, following import re-exports.

        Returns None for externals, classes, and anything out of scope
        (``self.x()``, computed callables).
        """
        if _depth > _RESOLVE_DEPTH:
            return None
        facts = self.modules.get(module)
        if facts is None:
            return None
        if dotted in facts.functions:
            return (module, dotted)
        parts = dotted.split(".")
        binding = facts.import_bindings.get(parts[0])
        if binding is not None:
            full = binding.split(".") + parts[1:]
        elif parts[0] in self.modules or any(
            name.startswith(parts[0] + ".") for name in self.modules
        ):
            full = parts  # absolute dotted reference (import a.b; a.b.f())
        else:
            return None
        for end in range(len(full), 0, -1):
            prefix = ".".join(full[:end])
            if prefix not in self.modules:
                continue
            qualname = ".".join(full[end:])
            target = self.modules[prefix]
            if not qualname:
                return None  # the reference names a module, not a callable
            if qualname in target.functions:
                return (prefix, qualname)
            rebind = target.import_bindings.get(full[end])
            if rebind is not None:
                return self._resolve_absolute(
                    rebind.split(".") + full[end + 1 :], _depth + 1
                )
            return None
        return None

    def _resolve_absolute(self, full: List[str], depth: int) -> Optional[Tuple[str, str]]:
        """Resolve an absolute dotted path (after a re-export hop)."""
        if depth > _RESOLVE_DEPTH:
            return None
        for end in range(len(full), 0, -1):
            prefix = ".".join(full[:end])
            if prefix not in self.modules:
                continue
            qualname = ".".join(full[end:])
            target = self.modules[prefix]
            if not qualname:
                return None
            if qualname in target.functions:
                return (prefix, qualname)
            rebind = target.import_bindings.get(full[end])
            if rebind is not None:
                return self._resolve_absolute(rebind.split(".") + full[end + 1 :], depth + 1)
            return None
        return None

    def function(self, module: str, qualname: str) -> Optional[FunctionFacts]:
        facts = self.modules.get(module)
        if facts is None:
            return None
        return facts.functions.get(qualname)

    def call_closure(
        self, module: str, qualname: str, max_functions: int = 200
    ) -> List[Tuple[str, str]]:
        """Functions transitively reachable from ``(module, qualname)``.

        Breadth-first over resolvable call edges; the start function is
        included.  Bounded to keep pathological graphs cheap.
        """
        start = (module, qualname)
        seen: Set[Tuple[str, str]] = {start}
        order: List[Tuple[str, str]] = [start]
        frontier = [start]
        while frontier and len(order) < max_functions:
            current_module, current_qualname = frontier.pop(0)
            function = self.function(current_module, current_qualname)
            if function is None:
                continue
            for callee in function.calls:
                resolved = self.resolve_callable(current_module, callee)
                if resolved is not None and resolved not in seen:
                    seen.add(resolved)
                    order.append(resolved)
                    frontier.append(resolved)
        return order

    def is_constant(self, module: str, name: str) -> bool:
        """Whether ``name`` in ``module`` is (or re-exports) a constant."""
        facts = self.modules.get(module)
        if facts is None:
            return False
        if name in facts.constants:
            return True
        binding = facts.import_bindings.get(name)
        if binding is None:
            return False
        parts = binding.split(".")
        for end in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:end])
            if prefix in self.modules:
                return ".".join(parts[end:]) in self.modules[prefix].constants
        return False

    # ------------------------------------------------------------------ #
    # Diagnostics                                                         #
    # ------------------------------------------------------------------ #

    def module_in_paths(self, module: str, patterns: List[str]) -> bool:
        facts = self.modules.get(module)
        return facts is not None and path_matches(facts.relpath, patterns)

    def option(self, rule: Rule, key: str):
        """Resolve a rule option exactly like the per-file tier does."""
        options = self.config.options_for(rule.id)
        if key in options:
            return options[key]
        return rule.default_options[key]

    def diagnostic(
        self, rule: Rule, relpath: str, lineno: int, col: int, message: str
    ) -> Diagnostic:
        return Diagnostic(
            rule_id=rule.id,
            path=relpath,
            line=lineno,
            col=col,
            severity=self.config.severity_for(rule.id, rule.default_severity),
            message=message,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Subclasses implement :meth:`check_project` over a
    :class:`ProjectContext`; the inherited per-file :meth:`check` is a
    no-op so a project rule accidentally run in the per-file tier stays
    silent rather than crashing.
    """

    tier = "project"

    def check(self, module) -> Iterator[Diagnostic]:  # pragma: no cover - guard
        return iter(())

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        raise NotImplementedError


def project_rules() -> List[type]:
    """Every registered whole-program rule class, sorted by id."""
    from repro.lint.registry import all_rules

    return [rule for rule in all_rules() if getattr(rule, "tier", "") == "project"]
