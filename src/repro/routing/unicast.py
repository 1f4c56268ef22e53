"""Unicast traffic between arbitrary SU pairs.

The paper's task is convergecast (everything to the base station); its
reference [7] — by the same group — treats *unicast* scheduling in CRNs as
the companion primitive.  :class:`UnicastPolicy` carries arbitrary
source/destination flows over the same ADDC MAC: each packet follows a
precomputed min-hop (or spectrum-temperature-weighted) route, delivery
happens at the flow's destination, and the PU-protection and carrier-
sensing rules are exactly those of Algorithm 1.

This is what turns the library from a single-task reproduction into a
general CRN network simulator: any traffic matrix expressible as
(source, destination) pairs runs through the same engine.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError, GraphError
from repro.graphs.bfs import bfs_parents
from repro.graphs.dijkstra import dijkstra_node_weighted, extract_path
from repro.network.topology import CrnTopology
from repro.routing.temperature import node_temperatures_at_range
from repro.sim.packet import Packet

__all__ = ["UnicastPolicy", "run_unicast"]

_ROUTING = ("min-hop", "coolest")


class UnicastPolicy:
    """Route explicit (source, destination) flows over the ADDC MAC.

    Parameters
    ----------
    topology:
        The deployed CRN.
    flows:
        ``(source, destination)`` node-id pairs; one packet per flow.
    routing:
        ``"min-hop"`` (BFS shortest paths) or ``"coolest"``
        (temperature-weighted paths, as the Coolest baseline computes
        them).
    p_t:
        PU activity, needed only for ``"coolest"`` temperatures.
    fairness_wait:
        Algorithm 1's line-12 wait (on by default — this policy runs
        ADDC's MAC).
    """

    def __init__(
        self,
        topology: CrnTopology,
        flows: Sequence[Tuple[int, int]],
        routing: str = "min-hop",
        p_t: float = 0.3,
        fairness_wait: bool = True,
    ) -> None:
        if routing not in _ROUTING:
            raise ConfigurationError(
                f"routing must be one of {_ROUTING}, got {routing!r}"
            )
        if not flows:
            raise ConfigurationError("need at least one flow")
        self.fairness_wait = bool(fairness_wait)
        self.routing = routing
        graph = topology.secondary.graph
        num_nodes = topology.secondary.num_nodes
        for source, destination in flows:
            for endpoint in (source, destination):
                if not 0 <= endpoint < num_nodes:
                    raise ConfigurationError(
                        f"flow endpoint {endpoint} outside the network"
                    )
            if source == destination:
                raise ConfigurationError(
                    f"flow {source}->{destination} has equal endpoints"
                )
            if source == topology.secondary.base_station:
                raise ConfigurationError(
                    "the base station does not originate data flows"
                )
        self.flows = [tuple(flow) for flow in flows]

        self._routes: List[List[int]] = []
        if routing == "min-hop":
            # One BFS per distinct source covers all its flows.
            parents_by_source = {}
            for source, destination in self.flows:
                if source not in parents_by_source:
                    parents_by_source[source] = bfs_parents(graph, source)
                route = extract_path(parents_by_source[source], destination)
                if route is None:
                    raise GraphError(
                        f"no route from {source} to {destination}; G_s must "
                        "be connected"
                    )
                self._routes.append(route)
        else:
            temperatures = node_temperatures_at_range(
                topology, p_t, topology.secondary.radius
            )
            weights = [float(t) + 1e-6 for t in temperatures]
            parents_by_source = {}
            for source, destination in self.flows:
                if source not in parents_by_source:
                    _, parents_by_source[source] = dijkstra_node_weighted(
                        graph, source, weights
                    )
                route = extract_path(parents_by_source[source], destination)
                if route is None:
                    raise GraphError(
                        f"no route from {source} to {destination}; G_s must "
                        "be connected"
                    )
                self._routes.append(route)

    def build_workload(self) -> List[Packet]:
        """One routed data packet per flow (packet id = flow index)."""
        return [
            Packet(
                packet_id=index,
                source=route[0],
                route=list(route),
            )
            for index, route in enumerate(self._routes)
        ]

    def route_of(self, flow_index: int) -> List[int]:
        """The computed route of one flow."""
        return list(self._routes[flow_index])

    def next_hop(self, node: int, packet: Packet) -> int:
        """Follow the packet's own route."""
        if packet.route is None:
            raise ConfigurationError("unicast packets must carry routes")
        if packet.route[packet.route_pos] != node:
            raise GraphError(
                f"packet {packet.packet_id} expected at "
                f"{packet.route[packet.route_pos]}, found at {node}"
            )
        return packet.route[packet.route_pos + 1]

    def describe(self) -> str:
        """Policy name for reports."""
        return f"Unicast({self.routing}, {len(self.flows)} flows)"


def run_unicast(
    topology: CrnTopology,
    streams,
    flows: Sequence[Tuple[int, int]],
    routing: str = "min-hop",
    eta_p_db: float = 8.0,
    eta_s_db: float = 8.0,
    alpha: float = 4.0,
    zeta_bound: str = "paper",
    blocking: str = "geometric",
    fairness_wait: bool = True,
    max_slots: int = 2_000_000,
):
    """Deliver one packet per (source, destination) flow over the ADDC MAC.

    Returns ``(policy, result)`` — the policy exposes each flow's route,
    the result carries the usual delivery records (delivery record ``i``
    belongs to flow ``i``).
    """
    from repro.core.pcr import db_to_linear
    from repro.sim.engine import SlottedEngine
    from repro.spectrum.sensing import sensing_at_pcr

    _, sense_map, homogeneous_p_o = sensing_at_pcr(
        topology,
        alpha=alpha,
        eta_p_db=eta_p_db,
        eta_s_db=eta_s_db,
        zeta_bound=zeta_bound,
        blocking=blocking,
    )
    policy = UnicastPolicy(
        topology,
        flows,
        routing=routing,
        p_t=topology.primary.activity.stationary_probability,
        fairness_wait=fairness_wait,
    )
    engine = SlottedEngine(
        topology=topology,
        sense_map=sense_map,
        policy=policy,
        streams=streams,
        alpha=alpha,
        eta_s=db_to_linear(eta_s_db),
        blocking=blocking,
        homogeneous_p_o=homogeneous_p_o,
        max_slots=max_slots,
    )
    engine.load_packets(policy.build_workload())
    return policy, engine.run()
