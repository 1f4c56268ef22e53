"""Tests for the connectivity / delay-scaling study helpers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.connectivity import (
    connectivity_probability,
    delay_vs_distance,
)


class TestConnectivityProbability:
    def test_dense_networks_connect(self):
        # ~12 expected neighbors per node: essentially always connected.
        probability = connectivity_probability(
            num_nodes=60, area=40.0 * 40.0, radius=10.0, trials=20, seed=1
        )
        assert probability > 0.9

    def test_sparse_networks_do_not(self):
        probability = connectivity_probability(
            num_nodes=20, area=200.0 * 200.0, radius=10.0, trials=20, seed=2
        )
        assert probability < 0.2

    def test_monotone_in_radius(self):
        low = connectivity_probability(40, 80.0 * 80.0, 10.0, trials=30, seed=3)
        high = connectivity_probability(40, 80.0 * 80.0, 25.0, trials=30, seed=3)
        assert high >= low

    def test_deterministic(self):
        a = connectivity_probability(30, 60.0 * 60.0, 12.0, trials=15, seed=4)
        b = connectivity_probability(30, 60.0 * 60.0, 12.0, trials=15, seed=4)
        assert a == b

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            connectivity_probability(1, 100.0, 10.0)
        with pytest.raises(ConfigurationError):
            connectivity_probability(10, 100.0, 10.0, trials=0)


class TestDelayVsDistance:
    def test_rows_sorted_and_scaling(self, quick_topology, streams):
        rows = delay_vs_distance(
            quick_topology, streams.spawn("dvd"), num_flows=6
        )
        assert len(rows) == 6
        distances = [row[0] for row in rows]
        assert distances == sorted(distances)
        # Hop counts grow with distance overall (nearest vs farthest).
        assert rows[-1][1] >= rows[0][1]
        # Every measured delay covers at least one slot per hop.
        for _, hops, delay in rows:
            assert delay >= hops

    def test_validation(self, quick_topology, streams):
        with pytest.raises(ConfigurationError):
            delay_vs_distance(quick_topology, streams.spawn("dvd2"), num_flows=1)
