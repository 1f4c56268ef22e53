"""Tests for the secondary network and deployment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, DisconnectedNetworkError
from repro.network.deployment import DeploymentSpec, deploy_crn
from repro.network.secondary import BASE_STATION, SecondaryNetwork
from repro.rng import StreamFactory


class TestSecondaryNetwork:
    def make(self, count=10):
        rng = np.random.default_rng(8)
        return SecondaryNetwork(
            positions=rng.random((count + 1, 2)) * 30, power=10.0, radius=10.0
        )

    def test_counts(self):
        network = self.make(12)
        assert network.num_sus == 12
        assert network.num_nodes == 13
        assert network.base_station == BASE_STATION
        assert list(network.su_ids()) == list(range(1, 13))

    def test_graph_matches_radius(self):
        network = self.make(15)
        delta = network.positions[:, None, :] - network.positions[None, :, :]
        matrix = np.hypot(delta[..., 0], delta[..., 1])
        for u in range(network.num_nodes):
            for v in range(u + 1, network.num_nodes):
                assert network.graph.has_edge(u, v) == (matrix[u, v] <= 10.0)

    def test_graph_cached(self):
        network = self.make(5)
        assert network.graph is network.graph

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            SecondaryNetwork(np.zeros((1, 2)), 10.0, 10.0)  # no SUs
        with pytest.raises(ConfigurationError):
            SecondaryNetwork(np.zeros((3, 2)), -1.0, 10.0)
        with pytest.raises(ConfigurationError):
            SecondaryNetwork(np.zeros((3, 2)), 10.0, 0.0)
        with pytest.raises(ConfigurationError):
            SecondaryNetwork(np.zeros((3, 3)), 10.0, 10.0)


class TestDeploymentSpec:
    def test_defaults_match_paper(self):
        spec = DeploymentSpec()
        assert spec.area == 62500.0
        assert spec.num_pus == 400
        assert spec.num_sus == 2000
        assert spec.p_t == 0.3

    def test_densities(self):
        spec = DeploymentSpec(area=100.0, num_pus=5, num_sus=20)
        assert spec.pu_density == 0.05
        assert spec.su_density == 0.20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"area": -1.0},
            {"num_pus": -1},
            {"num_sus": 0},
            {"p_t": 1.5},
            {"pu_power": 0.0},
            {"su_radius": -2.0},
            {"max_attempts": 0},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ConfigurationError):
            DeploymentSpec(**kwargs)


class TestDeployCrn:
    def spec(self):
        return DeploymentSpec(area=40.0 * 40.0, num_pus=10, num_sus=60)

    def test_produces_connected_graph(self):
        from repro.graphs.connectivity import is_connected

        topology = deploy_crn(self.spec(), StreamFactory(1))
        assert is_connected(topology.secondary.graph)

    def test_deterministic_per_seed(self):
        a = deploy_crn(self.spec(), StreamFactory(2))
        b = deploy_crn(self.spec(), StreamFactory(2))
        assert np.allclose(a.secondary.positions, b.secondary.positions)
        assert np.allclose(a.primary.positions, b.primary.positions)

    def test_different_seeds_differ(self):
        a = deploy_crn(self.spec(), StreamFactory(3))
        b = deploy_crn(self.spec(), StreamFactory(4))
        assert not np.allclose(a.secondary.positions, b.secondary.positions)

    def test_base_station_at_center(self):
        topology = deploy_crn(self.spec(), StreamFactory(5))
        assert np.allclose(topology.secondary.positions[0], [20.0, 20.0])

    def test_nodes_inside_region(self):
        topology = deploy_crn(self.spec(), StreamFactory(6))
        for positions in (topology.secondary.positions, topology.primary.positions):
            assert (positions >= 0.0).all()
            assert (positions <= 40.0).all()

    def test_impossible_density_raises(self):
        sparse = DeploymentSpec(
            area=500.0 * 500.0, num_pus=1, num_sus=3, max_attempts=3
        )
        with pytest.raises(DisconnectedNetworkError):
            deploy_crn(sparse, StreamFactory(7))
