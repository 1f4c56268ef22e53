"""Unused module-level imports fail tier-1 (the F401 rule CI's ruff runs).

An import counts as used when its bound name is read anywhere in the
module, listed in ``__all__``, or named inside a string annotation.
``__init__.py`` files are skipped (their imports are re-exports), and so
is an import line marked ``# noqa``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent


def _module_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Import statements at module level, inside ``if``/``try`` too."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_imports(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body)


def _annotation_names(node: ast.AST) -> Iterator[str]:
    """Names read by an annotation, string annotations parsed."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            try:
                yield from _annotation_names(ast.parse(inner.value, mode="eval"))
            except SyntaxError:
                pass


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            )
    return used


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every unused module-level import in ``source``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    unused = []
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append((node.lineno, bound))
    return unused


def test_no_unused_module_level_imports():
    findings = []
    for directory in ("src", "tests"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text(encoding="utf-8")):
                findings.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not findings, "unused imports:\n" + "\n".join(findings)


def test_checker_flags_a_seeded_unused_import():
    source = (
        "from typing import TYPE_CHECKING, Dict, List\n"
        "import os\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "__all__ = ['np']\n"
        "def f(x: 'Path') -> Dict:\n"
        "    return {}\n"
    )
    assert unused_imports(source) == [(1, "List"), (2, "os")]
