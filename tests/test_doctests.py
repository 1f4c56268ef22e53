"""Run the docstring examples embedded across the package."""

from __future__ import annotations

import doctest
import importlib

import pytest

# Modules whose docstrings carry runnable examples.
MODULES = [
    "repro.rng.streams",
    "repro.geometry.distance",
    "repro.geometry.region",
    "repro.geometry.spatial_index",
    "repro.graphs.graph",
    "repro.graphs.bfs",
    "repro.graphs.connectivity",
    "repro.graphs.mis",
    "repro.core.packing",
    "repro.core.pcr",
    "repro.core.fairness",
    "repro.core.numeric",
    "repro.lint.diagnostics",
    "repro.lint.registry",
    "repro.lint.suppress",
    "repro.network.primary",
    "repro.metrics.stats",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"
