"""The Coolest data-collection baseline.

Adaptation of [17] exactly as the evaluated paper describes (Section V):
"the path with the most balanced and/or the lowest spectrum utilization by
PUs is preferred for a data transmission", and "each SU of the secondary
network produces a data packet that will be transmitted to the base
station".

Differences from ADDC — each one a thing [17] does not have because it
predates the PCR analysis:

* **Routing**: every SU forwards along its coolest path to the base
  station (node-weighted Dijkstra over spectrum temperatures measured at
  the node's own radio range ``r``).  All sources independently prefer the
  same cool corridors, so paths converge — the data-accumulation effect
  the paper credits for Coolest's higher delay.
* **SU carrier sensing at ``r``** (conventional CSMA, as in [22]'s
  baseline setting) instead of the PCR: concurrent SU transmitters can be
  hidden from each other, and the physical SIR adjudication produces
  collisions and retransmissions — the "data collisions, interference and
  retransmissions" of the paper's third challenge.
* **No fairness wait** (Algorithm 1, line 12 is ADDC's contribution).

What is *not* different: PU protection.  Deferring to active PUs inside
the protection range is the regulatory premise of the CRN model
(Section I), so Coolest SUs freeze under exactly the same PU-protection
range as ADDC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.pcr import PcrResult, db_to_linear
from repro.errors import ConfigurationError, GraphError
from repro.graphs.dijkstra import dijkstra_node_weighted
from repro.network.topology import CrnTopology
from repro.rng import StreamFactory
from repro.routing.temperature import mixed_node_weights, node_temperatures_at_range
from repro.sim.engine import SlottedEngine
from repro.sim.packet import Packet
from repro.sim.results import SimulationResult
from repro.sim.trace import TraceLog
from repro.spectrum.sensing import CarrierSenseMap, sensing_at_pcr

__all__ = ["CoolestPolicy", "CoolestOutcome", "run_coolest_collection"]


class _MaskedGraph:
    """A read-only adjacency view of ``graph`` with some nodes removed.

    Masked nodes keep their ids (Dijkstra's arrays stay index-aligned)
    but have no edges, so they can be neither relays nor destinations.
    """

    def __init__(self, graph, masked: frozenset) -> None:
        self._graph = graph
        self._masked = masked

    @property
    def num_nodes(self) -> int:
        return self._graph.num_nodes

    def neighbors(self, node: int):
        if node in self._masked:
            return []
        return [n for n in self._graph.neighbors(node) if n not in self._masked]


class CoolestPolicy:
    """Forward every packet one hop along its source-independent coolest path.

    The coolest paths from all nodes to the base station form a tree (they
    are node-weighted shortest paths with deterministic tie-breaking), so
    the policy stores one next-hop pointer per node.  Paths minimize
    [17]'s mixed metric over spectrum temperatures estimated at the SU
    transmission radius ``r`` (the node's own radio).

    Parameters
    ----------
    topology:
        The deployed CRN.
    p_t:
        PU per-slot transmission probability (temperature estimation).
    """

    fairness_wait = False

    def __init__(
        self,
        topology: CrnTopology,
        p_t: float,
        route_discovery: bool = True,
    ) -> None:
        self.route_discovery = bool(route_discovery)
        self._pending_data: dict = {}
        temperatures = node_temperatures_at_range(
            topology, p_t, topology.secondary.radius
        )

        self._graph = topology.secondary.graph
        self._base = topology.secondary.base_station
        # A tiny uniform weight keeps Dijkstra hop-aware when a region is
        # entirely PU-free (zero temperature everywhere would otherwise make
        # all paths cost zero and the parent choice arbitrary).
        self._route_weights = [w + 1e-6 for w in mixed_node_weights(temperatures)]
        # Nodes currently excluded from routing (crashed or in a transient
        # outage); the parent tree is recomputed whenever this changes.
        self._offline: set = set()
        self._recompute_parents()
        if any(parent < 0 for parent in self._parents):
            raise GraphError("G_s must be connected for Coolest routing")
        self.temperatures = temperatures

    def _recompute_parents(self) -> None:
        """Rerun Dijkstra with offline nodes masked out of the adjacency."""
        graph = self._graph
        if self._offline:
            graph = _MaskedGraph(self._graph, frozenset(self._offline))
        _, self._parents = dijkstra_node_weighted(
            graph, self._base, self._route_weights
        )

    def on_node_departure(self, node: int):
        """Route around a crashed node; returns nodes the crash cut off.

        Coolest is a global shortest-path scheme, so the "repair" is a
        recompute over the surviving subgraph — the centralized-recovery
        cost the paper's distributed argument (Section I) highlights.
        """
        reachable_before = {
            n for n, parent in enumerate(self._parents) if parent >= 0
        }
        self._offline.add(node)
        self._recompute_parents()
        return sorted(
            n
            for n, parent in enumerate(self._parents)
            if parent < 0 and n != node and n in reachable_before
        )

    # A transient outage needs the same global reroute as a crash.
    on_node_outage = on_node_departure

    def on_node_rejoin(self, node: int) -> bool:
        """Readmit a recovered node; ``False`` if it is still cut off."""
        self._offline.discard(node)
        self._recompute_parents()
        if self._parents[node] < 0:
            self._offline.add(node)
            self._recompute_parents()
            return False
        return True

    def next_hop(self, node: int, packet: Packet) -> int:
        """One hop along the coolest path, or along an explicit control route."""
        if packet.route is not None:
            if packet.route[packet.route_pos] != node:
                raise GraphError(
                    f"routed packet {packet.packet_id} expected at node "
                    f"{packet.route[packet.route_pos]}, found at {node}"
                )
            return packet.route[packet.route_pos + 1]
        if node == self._base:
            raise ConfigurationError(
                "the base station only transmits control packets"
            )
        parent = self._parents[node]
        if parent == node:
            raise GraphError(f"node {node} has a broken parent pointer")
        if parent < 0:
            raise GraphError(f"node {node} has no route to the base station")
        return parent

    def build_workload(self, num_sus: int) -> List[Packet]:
        """The initial packet set for one snapshot collection.

        With route discovery (the on-demand behaviour of [17]), every SU
        first sends a route request along its coolest path; the base
        station answers with a route reply, and only its arrival releases
        the SU's data packet.  Without discovery, data packets start
        immediately (the infrastructure-assumed variant used in the
        route-discovery ablation).
        """
        from repro.sim.packet import DATA, RREQ

        packets: List[Packet] = []
        for index in range(1, num_sus + 1):
            data = Packet(packet_id=index - 1, source=index, kind=DATA)
            if not self.route_discovery:
                packets.append(data)
                continue
            self._pending_data[index] = data
            packets.append(
                Packet(
                    packet_id=num_sus + (index - 1),
                    source=index,
                    kind=RREQ,
                    route=self.route(index),
                )
            )
        return packets

    def on_control_arrival(self, packet: Packet, node: int) -> List[Packet]:
        """React to a control packet completing its route.

        An RREQ at the base station is answered with an RREP along the
        reversed path; an RREP at its source releases the held data packet.
        """
        from repro.sim.packet import RREP, RREQ

        if packet.kind == RREQ:
            return [
                Packet(
                    packet_id=packet.packet_id + 10_000_000,
                    source=packet.source,
                    kind=RREP,
                    route=list(reversed(packet.route or [])),
                )
            ]
        if packet.kind == RREP:
            data = self._pending_data.pop(packet.source, None)
            return [data] if data is not None else []
        return []

    def route(self, node: int) -> List[int]:
        """The full coolest path from ``node`` to the base station."""
        path = [node]
        while path[-1] != self._base:
            path.append(self._parents[path[-1]])
            if len(path) > len(self._parents):
                raise GraphError("parent pointers contain a cycle")
        return path

    def describe(self) -> str:
        """Policy name for reports."""
        return "Coolest(mixed)"


@dataclass
class CoolestOutcome:
    """A finished Coolest run plus its routing context."""

    result: SimulationResult
    policy: CoolestPolicy
    pcr: PcrResult
    sense_map: CarrierSenseMap
    #: The engine that produced ``result``; exposes post-run RNG stream
    #: positions (``engine.rng_positions()``) for determinism checks.
    engine: SlottedEngine


def run_coolest_collection(
    topology: CrnTopology,
    streams: StreamFactory,
    eta_p_db: float = 8.0,
    eta_s_db: float = 8.0,
    alpha: float = 4.0,
    zeta_bound: str = "paper",
    blocking: str = "geometric",
    route_discovery: bool = True,
    p_t: Optional[float] = None,
    fault_plan=None,
    max_slots: int = 2_000_000,
    contention_window_ms: float = 0.5,
    slot_duration_ms: float = 1.0,
    trace: Optional[TraceLog] = None,
) -> CoolestOutcome:
    """Collect one snapshot with the Coolest baseline.

    Coolest SUs obey the identical PU-protection range (the PCR distance)
    but carrier-sense other SUs only at their transmission radius ``r``, so
    transmissions are adjudicated — and sometimes lost — under the physical
    SIR model.

    When a ``fault_plan`` is given, prefer ``route_discovery=False``:
    discovered routes are frozen into the control packets, so a fault
    arriving mid-discovery strands them on their stale paths (hop-by-hop
    forwarding reroutes fine).
    """
    if p_t is None:
        p_t = topology.primary.activity.stationary_probability
    pcr, sense_map, homogeneous_p_o = sensing_at_pcr(
        topology,
        alpha=alpha,
        eta_p_db=eta_p_db,
        eta_s_db=eta_s_db,
        zeta_bound=zeta_bound,
        blocking=blocking,
        p_t=p_t,
        su_csma_range=topology.secondary.radius,
    )
    policy = CoolestPolicy(topology, p_t, route_discovery=route_discovery)
    engine = SlottedEngine(
        topology=topology,
        sense_map=sense_map,
        policy=policy,
        streams=streams,
        alpha=alpha,
        eta_s=db_to_linear(eta_s_db),
        blocking=blocking,
        homogeneous_p_o=homogeneous_p_o,
        fault_plan=fault_plan,
        slot_duration_ms=slot_duration_ms,
        contention_window_ms=contention_window_ms,
        max_slots=max_slots,
        trace=trace,
    )
    workload = policy.build_workload(topology.secondary.num_sus)
    engine.load_packets(workload, expected_deliveries=topology.secondary.num_sus)
    result = engine.run()
    return CoolestOutcome(
        result=result, policy=policy, pcr=pcr, sense_map=sense_map, engine=engine
    )
