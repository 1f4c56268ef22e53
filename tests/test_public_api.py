"""Public-API surface checks.

Keeps the exported names importable and the exception hierarchy intact —
the contracts downstream code depends on.
"""

from __future__ import annotations

import importlib

import pytest

import repro
from repro import errors

PACKAGES = [
    "repro",
    "repro.core",
    "repro.graphs",
    "repro.network",
    "repro.spectrum",
    "repro.sim",
    "repro.routing",
    "repro.scheduling",
    "repro.metrics",
    "repro.workloads",
    "repro.experiments",
    "repro.geometry",
    "repro.rng",
    "repro.viz",
]


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_headline_api_present(self):
        for name in (
            "run_addc_collection",
            "run_coolest_collection",
            "run_centralized_collection",
            "compute_pcr",
            "deploy_crn",
            "ExperimentConfig",
            "SlottedEngine",
        ):
            assert hasattr(repro, name)


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            attribute = getattr(errors, name)
            if (
                isinstance(attribute, type)
                and issubclass(attribute, Exception)
                and attribute is not errors.ReproError
            ):
                assert issubclass(attribute, errors.ReproError), name

    def test_specific_parents(self):
        assert issubclass(errors.DisconnectedNetworkError, errors.GraphError)
        assert issubclass(
            errors.InterferenceViolationError, errors.SimulationError
        )

    def test_catchable_as_repro_error(self):
        with pytest.raises(errors.ReproError):
            raise errors.ConfigurationError("bad")


class TestTopologyHelpers:
    def test_reprs_are_informative(self, quick_topology):
        assert "CrnTopology" in repr(quick_topology)
        assert "PrimaryNetwork" in repr(quick_topology.primary)
        assert "SecondaryNetwork" in repr(quick_topology.secondary)
