"""The engine's slot loop calls no numpy ``fromnumeric`` wrapper.

Functions such as ``np.nonzero`` or ``np.sum`` are Python-level wrappers:
each call dispatches through ``__array_function__`` before reaching the
array method, which costs more than the work on the few dozen nodes of a
typical slot.  The array methods (``mask.nonzero()``, ``rows.sum()``)
skip that layer.  This check walks every ``SlottedEngine`` method the
slot loop (``_run_loop``) can reach through ``self.<method>(...)`` calls,
plus the module-level helpers they call, and fails on any wrapper call.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

try:
    from numpy._core import fromnumeric
except ImportError:  # numpy < 2
    from numpy.core import fromnumeric

ROOT = Path(__file__).resolve().parent.parent
ENGINE = ROOT / "src" / "repro" / "sim" / "engine.py"

#: numpy's fromnumeric wrappers, plus ``flatnonzero`` (a wrapper over
#: ``nonzero`` that lives in ``numpy.numeric``).
WRAPPERS = frozenset(fromnumeric.__all__) | {"flatnonzero"}


def _numpy_names(tree: ast.Module) -> Tuple[Set[str], Dict[str, str]]:
    """Names bound to the numpy module, and wrapper names imported from it."""
    modules: Set[str] = set()
    functions: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    modules.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name in WRAPPERS:
                    functions[alias.asname or alias.name] = alias.name
    return modules, functions


def wrapper_calls(
    source: str, class_name: str = "SlottedEngine", root: str = "_run_loop"
) -> List[Tuple[str, int, str]]:
    """``(function, line, wrapper)`` for each wrapper call reachable from
    ``class_name.root``."""
    tree = ast.parse(source)
    modules, functions = _numpy_names(tree)
    module_functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    (engine,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    methods = {
        node.name: node for node in engine.body if isinstance(node, ast.FunctionDef)
    }
    found: List[Tuple[str, int, str]] = []
    seen: Set[str] = set()
    pending = [("method", root)]
    while pending:
        kind, name = pending.pop()
        if (kind, name) in seen:
            continue
        seen.add((kind, name))
        function = methods[name] if kind == "method" else module_functions[name]
        for call in ast.walk(function):
            if not isinstance(call, ast.Call):
                continue
            target = call.func
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                owner, attr = target.value.id, target.attr
                if owner in modules and attr in WRAPPERS:
                    found.append((name, call.lineno, f"{owner}.{attr}"))
                elif owner == "self" and attr in methods:
                    pending.append(("method", attr))
            elif isinstance(target, ast.Name):
                if target.id in functions:
                    found.append((name, call.lineno, functions[target.id]))
                elif target.id in module_functions:
                    pending.append(("function", target.id))
    return sorted(found)


def test_the_slot_loop_calls_no_fromnumeric_wrapper():
    found = wrapper_calls(ENGINE.read_text(encoding="utf-8"))
    assert not found, "numpy wrapper calls on the slot path:\n" + "\n".join(
        f"engine.py:{line}: {function} calls {wrapper}"
        for function, line, wrapper in found
    )


def test_the_guard_catches_a_seeded_wrapper_call():
    source = (
        "import numpy as xp\n"
        "from numpy import argmin as first_min\n"
        "def helper(rows):\n"
        "    return xp.sum(rows)\n"
        "class SlottedEngine:\n"
        "    def _run_loop(self):\n"
        "        self._step()\n"
        "    def _step(self):\n"
        "        mask = self.mask\n"
        "        helper(mask)\n"
        "        first_min(mask)\n"
        "        return mask.nonzero()[0], xp.nonzero(mask)\n"
        "    def _setup(self):\n"
        "        return xp.any(self.mask)\n"
    )
    assert wrapper_calls(source) == [
        ("_step", 11, "argmin"),
        ("_step", 12, "xp.nonzero"),
        ("helper", 4, "xp.sum"),
    ]
