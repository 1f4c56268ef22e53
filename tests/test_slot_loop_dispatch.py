"""The engine's slot loop calls no numpy ``fromnumeric`` wrapper.

Functions such as ``np.nonzero`` or ``np.sum`` are Python-level wrappers:
each call dispatches through ``__array_function__`` before reaching the
array method, which costs more than the work on the few dozen nodes of a
typical slot.  The array methods (``mask.nonzero()``, ``rows.sum()``)
skip that layer.  This check walks every ``SlottedEngine`` method the
slot loop (``_run_loop``) can reach through ``self.<method>(...)`` calls,
every spectrum-process method it reaches through
``self.spectrum.<method>(...)`` calls (in any class of
``repro/spectrum/blocking.py`` that defines it, and from there through
``self.<method>(...)`` in any of those classes), plus the module-level
helpers of either module they call, and fails on any wrapper call.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

try:
    from numpy._core import fromnumeric
except ImportError:  # numpy < 2
    from numpy.core import fromnumeric

ROOT = Path(__file__).resolve().parent.parent
ENGINE = ROOT / "src" / "repro" / "sim" / "engine.py"
SPECTRUM = ROOT / "src" / "repro" / "spectrum" / "blocking.py"

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


class _Module:
    """One parsed source: its numpy names, module-level functions and the
    methods of each class."""

    def __init__(self, source: str, label: str) -> None:
        tree = ast.parse(source)
        self.label = label
        self.modules, self.functions = _numpy_names(tree)
        self.helpers = {
            node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        self.classes = {
            node.name: {
                item.name: item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            for node in tree.body
            if isinstance(node, ast.ClassDef)
        }

    def defining(self, method: str) -> List[Tuple[str, str]]:
        """``(class, method)`` for each class here that defines ``method``."""
        return [(cls, method) for cls, methods in self.classes.items() if method in methods]


def slot_path(
    source: str,
    class_name: str = "SlottedEngine",
    root: str = "_run_loop",
    spectrum_source: Optional[str] = None,
) -> Tuple[List[Tuple[str, int, str]], Set[str]]:
    """The wrapper calls reachable from ``class_name.root``, as
    ``(function, line, wrapper)``, and the names of the functions visited.

    Engine functions are named bare; spectrum-process ones as
    ``blocking.<Class>.<method>`` or ``blocking.<helper>``.  A
    ``self.<method>`` call inside a spectrum class is followed into every
    spectrum class that defines the method, since the object may be any
    of them.
    """
    engine = _Module(source, "")
    spectrum = _Module(spectrum_source or "", "blocking.")
    found: List[Tuple[str, int, str]] = []
    seen: Set[Tuple[str, Optional[str], str]] = set()
    visited: Set[str] = set()
    pending: List[Tuple[_Module, Optional[str], str]] = [(engine, class_name, root)]
    while pending:
        module, owner_class, name = pending.pop()
        key = (module.label, owner_class, name)
        if key in seen:
            continue
        seen.add(key)
        if owner_class is None:
            function = module.helpers[name]
            where = module.label + name
        else:
            function = module.classes[owner_class][name]
            where = name if module is engine else f"{module.label}{owner_class}.{name}"
        visited.add(where)
        for call in ast.walk(function):
            if not isinstance(call, ast.Call):
                continue
            target = call.func
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                owner, attr = target.value.id, target.attr
                if owner in module.modules and attr in WRAPPERS:
                    found.append((where, call.lineno, f"{owner}.{attr}"))
                elif owner == "self" and module is engine:
                    if attr in module.classes[class_name]:
                        pending.append((engine, class_name, attr))
                elif owner == "self":
                    for cls, method in module.defining(attr):
                        pending.append((module, cls, method))
            elif (
                isinstance(target, ast.Attribute)
                and module is engine
                and isinstance(target.value, ast.Attribute)
                and isinstance(target.value.value, ast.Name)
                and target.value.value.id == "self"
                and target.value.attr == "spectrum"
            ):
                for cls, method in spectrum.defining(target.attr):
                    pending.append((spectrum, cls, method))
            elif isinstance(target, ast.Name):
                if target.id in module.functions:
                    found.append((where, call.lineno, module.functions[target.id]))
                elif target.id in module.helpers:
                    pending.append((module, None, target.id))
    return sorted(found), visited


def wrapper_calls(
    source: str,
    class_name: str = "SlottedEngine",
    root: str = "_run_loop",
    spectrum_source: Optional[str] = None,
) -> List[Tuple[str, int, str]]:
    """``(function, line, wrapper)`` for each wrapper call reachable from
    ``class_name.root`` (see :func:`slot_path`)."""
    return slot_path(source, class_name, root, spectrum_source)[0]


def test_the_slot_loop_calls_no_fromnumeric_wrapper():
    found = wrapper_calls(
        ENGINE.read_text(encoding="utf-8"),
        spectrum_source=SPECTRUM.read_text(encoding="utf-8"),
    )
    files = {True: "spectrum/blocking.py", False: "sim/engine.py"}
    assert not found, "numpy wrapper calls on the slot path:\n" + "\n".join(
        f"{files[function.startswith('blocking.')]}:{line}: {function} calls {wrapper}"
        for function, line, wrapper in found
    )


def test_the_guard_reaches_the_spectrum_process():
    """The real slot path reaches each question the engine asks the
    spectrum process, in every blocking model that answers it, and the
    numpy helpers those answers use."""
    _, visited = slot_path(
        ENGINE.read_text(encoding="utf-8"),
        spectrum_source=SPECTRUM.read_text(encoding="utf-8"),
    )
    expected = {
        "blocking.Blocking.frozen_prefix",
        "blocking.Blocking.busy_channels",
        "blocking.Blocking._take_errors",
        "blocking.Blocking._sensed",
        "blocking._frozen_prefix",
        "blocking._sensed_busy",
        "blocking.GeometricBlocking.pu_interference",
    }
    for model in ("MeanFieldBlocking", "GeometricBlocking"):
        for method in ("advance", "sense", "_busy_ahead", "_skip", "busy_counts"):
            expected.add(f"blocking.{model}.{method}")
    assert expected <= visited, sorted(expected - visited)


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


def test_the_guard_follows_the_spectrum_process():
    engine = (
        "import numpy as np\n"
        "class SlottedEngine:\n"
        "    def _run_loop(self):\n"
        "        self.spectrum.sense(self.idx)\n"
        "        return self.spectrum.active_pus.nonzero()\n"
    )
    spectrum = (
        "import numpy as xp\n"
        "def helper(rows):\n"
        "    return xp.flatnonzero(rows)\n"
        "class Base:\n"
        "    def sense(self, nodes):\n"
        "        return self._busy(nodes)\n"
        "    def unreached(self):\n"
        "        return xp.any(self.row)\n"
        "class Model(Base):\n"
        "    def _busy(self, nodes):\n"
        "        return helper(xp.take(self.row, nodes))\n"
        "class Other(Base):\n"
        "    def sense(self, nodes):\n"
        "        return xp.sum(nodes)\n"
    )
    assert wrapper_calls(engine) == []
    assert wrapper_calls(engine, spectrum_source=spectrum) == [
        ("blocking.Model._busy", 11, "xp.take"),
        ("blocking.Other.sense", 14, "xp.sum"),
        ("blocking.helper", 3, "xp.flatnonzero"),
    ]
