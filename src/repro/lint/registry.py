"""Rule plugin registry and the per-module context rules run against.

A rule is a subclass of :class:`Rule` decorated with :func:`register_rule`.
Each rule declares an ``id`` (stable, used in suppressions and config), a
``name``, a ``description``, a ``default_severity``, and optional
``default_options`` that ``[tool.reprolint.rules.<id>]`` entries override
key-by-key.  ``check`` receives a :class:`ModuleContext` (parsed AST plus
path/config helpers) and yields ``(node_or_location, message)`` findings via
:meth:`ModuleContext.diagnostic`; ``finish`` runs once after the last file.

Rules that ban dotted names outside (or inside) a path set subclass
:class:`BannedNameRule` and only declare what they ban: one matcher
resolves the module's import aliases and checks every call and import.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

from repro.errors import ConfigurationError
from repro.lint.config import LintConfig, path_matches
from repro.lint.diagnostics import Diagnostic, Severity

__all__ = [
    "ModuleContext",
    "Rule",
    "BannedNameRule",
    "register_rule",
    "all_rules",
    "get_rule",
    "dotted_name",
    "ends_with_dotted",
    "module_name_for",
    "import_bindings",
]

_REGISTRY: Dict[str, Type["Rule"]] = {}


def dotted_name(node: ast.AST) -> Optional[str]:
    """Flatten an attribute chain to ``"a.b.c"`` (None for non-name chains).

    >>> import ast
    >>> dotted_name(ast.parse("np.random.default_rng", mode="eval").body)
    'np.random.default_rng'
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def ends_with_dotted(name: str, suffix: str) -> bool:
    """Whether ``name``'s trailing dotted components equal ``suffix``.

    >>> ends_with_dotted("datetime.datetime.now", "datetime.now")
    True
    >>> ends_with_dotted("runtime.time", "time.time")
    False
    """
    return name == suffix or name.endswith("." + suffix)


def module_name_for(relpath: str) -> str:
    """Dotted module name for a project-relative path.

    >>> module_name_for("src/repro/sim/engine.py")
    'repro.sim.engine'
    >>> module_name_for("pkg/__init__.py")
    'pkg'
    """
    parts = list(relpath.replace("\\", "/").split("/"))
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


def import_bindings(
    tree: ast.Module, module: str, is_init: bool
) -> List[Tuple[ast.stmt, str, str]]:
    """Every name an import binds: ``(statement, local, dotted origin)``.

    ``import a.b`` binds ``a`` to ``a``; ``import a.b as c`` binds ``c``
    to ``a.b``; ``from a import n as m`` binds ``m`` to ``a.n``.  Relative
    imports resolve against ``module``.  Results come in source order, so
    a later rebinding of the same local name wins when folded into a dict.

    >>> tree = ast.parse("import time as _t\\nfrom os import replace\\n")
    >>> [(local, origin) for _, local, origin in import_bindings(tree, "m", False)]
    [('_t', 'time'), ('replace', 'os.replace')]
    """
    bindings: List[Tuple[ast.stmt, str, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings.append((node, alias.asname, alias.name))
                else:
                    root = alias.name.split(".")[0]
                    bindings.append((node, root, root))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Level 1 is the containing package: a plain module's
                # parent, while a package __init__ is its own package.
                parts = module.split(".") if module else []
                drop = node.level - 1 if is_init else node.level
                parts = parts[: len(parts) - drop] if drop > 0 else parts
                base = ".".join(parts + (base.split(".") if base else []))
            for alias in node.names:
                if alias.name != "*":
                    origin = f"{base}.{alias.name}" if base else alias.name
                    bindings.append((node, alias.asname or alias.name, origin))
    bindings.sort(key=lambda binding: (binding[0].lineno, binding[0].col_offset))
    return bindings


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one module under analysis."""

    relpath: str
    source: str
    tree: ast.Module
    config: LintConfig = field(default_factory=LintConfig)

    @property
    def is_dunder_init(self) -> bool:
        return self.relpath.endswith("__init__.py")

    @property
    def module_basename(self) -> str:
        return self.relpath.rsplit("/", 1)[-1]

    @cached_property
    def imports(self) -> List[Tuple[ast.stmt, str, str]]:
        """This module's :func:`import_bindings`, computed once."""
        return import_bindings(
            self.tree, module_name_for(self.relpath), self.is_dunder_init
        )

    @cached_property
    def _bindings(self) -> Dict[str, str]:
        return {local: origin for _, local, origin in self.imports}

    def resolve(self, name: str) -> Tuple[str, bool]:
        """``(dotted origin, bound)`` of a dotted name used in this module.

        The root is replaced by what an import bound it to (``_t.sleep``
        with ``import time as _t`` resolves to ``time.sleep``); ``bound``
        says whether the root came from an import at all.
        """
        root, dot, rest = name.partition(".")
        origin = self._bindings.get(root)
        if origin is None:
            return name, False
        return origin + dot + rest, True

    def in_paths(self, patterns: List[str]) -> bool:
        """Suffix-match this module's path against glob ``patterns``."""
        return path_matches(self.relpath, patterns)

    def option(self, rule: "Rule", key: str) -> Any:
        """Resolve a rule option: pyproject override, else rule default."""
        options = self.config.options_for(rule.id)
        if key in options:
            return options[key]
        if key in rule.default_options:
            return rule.default_options[key]
        raise ConfigurationError(f"rule {rule.id} has no option {key!r}")

    def diagnostic(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Diagnostic:
        """Build a diagnostic for ``node`` with the rule's effective severity."""
        return Diagnostic(
            rule_id=rule.id,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            severity=self.config.severity_for(rule.id, rule.default_severity),
            message=message,
        )


class Rule:
    """Base class for reprolint rules; subclass and :func:`register_rule`."""

    id: str = ""
    name: str = ""
    description: str = ""
    default_severity: Severity = Severity.WARNING
    default_options: Dict[str, Any] = {}

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        """Yield diagnostics for ``module``; implemented by subclasses."""
        raise NotImplementedError

    def finish(self) -> Iterator[Diagnostic]:
        """Yield findings that need every file; called once after the last.

        The runner makes one instance per run, so a rule may collect state
        in :meth:`check` and report it here (RNG010 groups stream names).
        """
        return iter(())

    @classmethod
    def summary_row(cls) -> str:
        return f"{cls.id:<8} {str(cls.default_severity):<8} {cls.name}: {cls.description}"


class BannedNameRule(Rule):
    """Base for rules that ban dotted names by path scope.

    Subclasses declare ``banned_names`` (matched as dotted suffixes, so
    ``datetime.now`` also catches ``datetime.datetime.now``),
    ``banned_modules`` (the module and every member of it, reached through
    an import), and ``reason``, the message tail.  The ban applies outside
    the paths of the ``allow`` option, or, when ``scope_option`` is
    ``"paths"``, only inside them.  Calls are matched after resolving
    import aliases, and every import binding of a banned name is flagged
    at the import statement.
    """

    banned_names: Tuple[str, ...] = ()
    banned_modules: Tuple[str, ...] = ()
    reason: str = ""
    scope_option: str = "allow"

    def applies_to(self, module: ModuleContext) -> bool:
        inside = module.in_paths(module.option(self, self.scope_option))
        return inside if self.scope_option == "paths" else not inside

    def bans(self, origin: str, bound: bool) -> bool:
        """Whether a resolved dotted name is banned by this rule."""
        if any(ends_with_dotted(origin, name) for name in self.banned_names):
            return True
        return bound and any(
            origin == banned or origin.startswith(banned + ".")
            for banned in self.banned_modules
        )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if not self.applies_to(module):
            return
        for statement, _, origin in module.imports:
            if self.bans(origin, bound=True):
                yield module.diagnostic(
                    self, statement, f"import of `{origin}` {self.reason}"
                )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            origin, bound = module.resolve(name)
            if self.bans(origin, bound):
                alias = "" if origin == name else f" (`{origin}`)"
                yield module.diagnostic(
                    self, node, f"call to `{name}`{alias} {self.reason}"
                )


def register_rule(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.id or not rule_class.name:
        raise ConfigurationError(
            f"rule {rule_class.__name__} must define a non-empty id and name"
        )
    existing = _REGISTRY.get(rule_class.id)
    if existing is not None and existing is not rule_class:
        raise ConfigurationError(f"duplicate rule id {rule_class.id}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, sorted by id (imports the rule pack)."""
    import repro.lint.rules  # noqa: F401  (populates the registry on import)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Type[Rule]:
    """Look up one rule class by id."""
    for rule_class in all_rules():
        if rule_class.id == rule_id:
            return rule_class
    raise ConfigurationError(f"unknown rule id {rule_id!r}")
