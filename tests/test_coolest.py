"""Tests for the Coolest baseline: temperatures, routing, control plane."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.routing.coolest import CoolestPolicy, run_coolest_collection
from repro.routing.temperature import (
    mixed_node_weights,
    node_temperatures,
    node_temperatures_at_range,
    path_accumulated_temperature,
    path_highest_temperature,
    path_mixed_temperature,
)
from repro.sim.packet import DATA, RREP, RREQ, Packet
from repro.spectrum.sensing import CarrierSenseMap


class TestTemperatureMetrics:
    def test_path_metrics(self):
        temps = [0.1, 0.5, 0.9]
        path = [0, 1, 2]
        assert path_accumulated_temperature(path, temps) == pytest.approx(1.5)
        assert path_highest_temperature(path, temps) == pytest.approx(0.9)
        assert path_mixed_temperature(path, temps) == pytest.approx(
            0.1 * 1.1 + 0.5 * 1.5 + 0.9 * 1.9
        )

    def test_mixed_weights_superlinear(self):
        weights = mixed_node_weights([0.1, 0.9])
        # The hot node is penalized more than linearly.
        assert weights[1] / weights[0] > 0.9 / 0.1

    def test_empty_path_rejected(self):
        with pytest.raises(ConfigurationError):
            path_accumulated_temperature([], [0.1])

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError):
            path_highest_temperature([5], [0.1])

    def test_temperatures_complement_opportunity(self, quick_topology):
        sense = CarrierSenseMap(quick_topology, 20.0)
        temps = node_temperatures(sense, 0.3)
        assert ((temps >= 0.0) & (temps < 1.0)).all()
        for node, pus in enumerate(sense.pus_heard_by):
            assert temps[node] == pytest.approx(1.0 - 0.7 ** len(pus))

    def test_temperatures_at_range_matches_counts(self, quick_topology):
        temps = node_temperatures_at_range(quick_topology, 0.3, 10.0)
        pu_positions = quick_topology.primary.positions
        su_positions = quick_topology.secondary.positions
        for node in range(quick_topology.secondary.num_nodes):
            count = int(
                (np.hypot(*(pu_positions - su_positions[node]).T) <= 10.0).sum()
            )
            assert temps[node] == pytest.approx(1.0 - 0.7**count)

    def test_at_range_validation(self, quick_topology):
        with pytest.raises(ConfigurationError):
            node_temperatures_at_range(quick_topology, 1.5, 10.0)
        with pytest.raises(ConfigurationError):
            node_temperatures_at_range(quick_topology, 0.3, -1.0)


class TestCoolestPolicy:
    def test_routes_end_at_base_station(self, quick_topology):
        policy = CoolestPolicy(quick_topology, 0.3)
        for node in quick_topology.secondary.su_ids():
            route = policy.route(node)
            assert route[0] == node
            assert route[-1] == quick_topology.secondary.base_station
            # Routes are simple (no repeated nodes).
            assert len(set(route)) == len(route)

    def test_route_edges_exist(self, quick_topology):
        policy = CoolestPolicy(quick_topology, 0.3)
        graph = quick_topology.secondary.graph
        for node in list(quick_topology.secondary.su_ids())[:20]:
            route = policy.route(node)
            for a, b in zip(route, route[1:]):
                assert graph.has_edge(a, b)

    def test_next_hop_pointer(self, quick_topology):
        policy = CoolestPolicy(quick_topology, 0.3)
        packet = Packet(packet_id=0, source=4)
        node = 4
        route = policy.route(4)
        assert policy.next_hop(node, packet) == route[1]

    def test_next_hop_explicit_route(self, quick_topology):
        policy = CoolestPolicy(quick_topology, 0.3)
        # Pick a node whose route has at least two hops.
        node = next(
            su
            for su in quick_topology.secondary.su_ids()
            if len(policy.route(su)) >= 3
        )
        route = policy.route(node)
        packet = Packet(packet_id=0, source=node, kind=RREQ, route=route)
        assert policy.next_hop(node, packet) == route[1]
        packet.route_pos = 1
        assert policy.next_hop(route[1], packet) == route[2]

    def test_bad_metric(self, quick_topology):
        with pytest.raises(ConfigurationError):
            CoolestPolicy(quick_topology, 0.3, metric="wrong")

    def test_no_fairness_wait(self, quick_topology):
        assert not CoolestPolicy(quick_topology, 0.3).fairness_wait

    def test_avoids_hot_region(self):
        """With PUs clustered in the middle, coolest paths detour around
        the cluster."""
        from repro.geometry.region import SquareRegion
        from repro.network.primary import BernoulliActivity, PrimaryNetwork
        from repro.network.secondary import SecondaryNetwork
        from repro.network.topology import CrnTopology

        # A 5-node diamond: 0 (base) - {1 hot, 2 cool} - 3.
        secondary = SecondaryNetwork(
            positions=np.array(
                [[10.0, 10.0], [18.0, 14.0], [18.0, 6.0], [26.0, 10.0]]
            ),
            power=10.0,
            radius=10.0,
        )
        # A PU cluster near node 1 (within its radio range) and out of
        # node 2's range.
        primary = PrimaryNetwork(
            positions=np.array([[18.0, 17.0], [17.0, 18.0], [19.0, 18.0]]),
            power=10.0,
            radius=10.0,
            activity=BernoulliActivity(0.3),
        )
        topology = CrnTopology(
            region=SquareRegion(40.0), primary=primary, secondary=secondary
        )
        policy = CoolestPolicy(topology, 0.3)
        assert policy.route(3) == [3, 2, 0]


class TestControlPlane:
    def test_workload_with_discovery(self, quick_topology):
        policy = CoolestPolicy(quick_topology, 0.3, route_discovery=True)
        packets = policy.build_workload(quick_topology.secondary.num_sus)
        assert all(p.kind == RREQ for p in packets)
        assert len(packets) == quick_topology.secondary.num_sus

    def test_workload_without_discovery(self, quick_topology):
        policy = CoolestPolicy(quick_topology, 0.3, route_discovery=False)
        packets = policy.build_workload(quick_topology.secondary.num_sus)
        assert all(p.kind == DATA for p in packets)

    def test_rreq_triggers_rrep(self, quick_topology):
        policy = CoolestPolicy(quick_topology, 0.3)
        policy.build_workload(quick_topology.secondary.num_sus)
        route = policy.route(7)
        rreq = Packet(packet_id=1000, source=7, kind=RREQ, route=route)
        rreq.route_pos = len(route) - 1
        spawned = policy.on_control_arrival(rreq, 0)
        assert len(spawned) == 1
        assert spawned[0].kind == RREP
        assert spawned[0].route == list(reversed(route))

    def test_rrep_releases_data_once(self, quick_topology):
        policy = CoolestPolicy(quick_topology, 0.3)
        policy.build_workload(quick_topology.secondary.num_sus)
        route = list(reversed(policy.route(7)))
        rrep = Packet(packet_id=2000, source=7, kind=RREP, route=route)
        released = policy.on_control_arrival(rrep, 7)
        assert len(released) == 1
        assert released[0].is_data and released[0].source == 7
        # A duplicate RREP releases nothing.
        assert policy.on_control_arrival(rrep, 7) == []


class TestRunCoolest:
    def test_end_to_end(self, tiny_topology, streams):
        outcome = run_coolest_collection(
            tiny_topology, streams.spawn("coolest-e2e"), max_slots=200_000
        )
        assert outcome.result.completed
        assert outcome.result.delivered == tiny_topology.secondary.num_sus
        # Control traffic means strictly more transmissions than data hops.
        data_hops = sum(r.hops for r in outcome.result.deliveries)
        assert outcome.result.total_transmissions > data_hops

    def test_without_discovery_fewer_transmissions(self, tiny_topology, streams):
        with_discovery = run_coolest_collection(
            tiny_topology, streams.spawn("cd1"), max_slots=200_000
        )
        without_discovery = run_coolest_collection(
            tiny_topology,
            streams.spawn("cd2"),
            route_discovery=False,
            max_slots=200_000,
        )
        assert (
            without_discovery.result.total_transmissions
            < with_discovery.result.total_transmissions
        )
