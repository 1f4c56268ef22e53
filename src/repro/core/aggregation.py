"""In-network aggregation convergecast over the collection tree.

The paper's task moves every raw packet to the base station (snapshot
*collection*, no aggregation).  The construction it borrows the tree from —
Wan et al.'s minimum-latency aggregation scheduling [25] — solves the
*aggregation* variant: a relay combines everything it heard with its own
reading and transmits **once**.  Aggregation turns the base station's
1-packet-per-slot bottleneck (which forces Omega(n) collection delay) into
a latency governed by tree depth and degree, so the two tasks bracket what
a CRN data-gathering system can do over the same MAC.

:class:`AggregationPolicy` runs Algorithm 1's MAC unchanged; only the
traffic pattern differs:

* leaves contend as soon as the task starts;
* an interior node absorbs its children's aggregates and releases its own
  single aggregate once the last child has reported;
* the task completes when every base-station child has delivered its
  aggregate (the root then knows the whole snapshot's aggregate).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError, SimulationError
from repro.graphs.tree import CollectionTree
from repro.sim.packet import Packet

__all__ = ["AggregationPolicy", "run_aggregation"]


class AggregationPolicy:
    """Aggregate-and-forward over the collection tree (ADDC's MAC)."""

    fairness_wait = True

    def __init__(self, tree: CollectionTree, fairness_wait: bool = True) -> None:
        self.tree = tree
        self.fairness_wait = bool(fairness_wait)
        children = tree.children()
        #: Children still unreported, per interior node.
        self._awaiting: Dict[int, int] = {
            node: len(kids)
            for node, kids in enumerate(children)
            if kids and node != tree.root
        }
        self._released: set = set()
        self._base = tree.root
        self._num_nodes = tree.num_nodes

    def next_hop(self, node: int, packet: Packet) -> int:
        """Aggregates always climb to the tree parent."""
        parent = self.tree.parent[node]
        if parent == node:
            raise ConfigurationError(
                "the base station never transmits during aggregation"
            )
        return parent

    def build_workload(self) -> List[Packet]:
        """Initial packets: one aggregate per *leaf* (interiors wait).

        Packet ids are the originating node ids, which makes the delivered
        set easy to audit.
        """
        packets = []
        children = self.tree.children()
        for node in range(self._num_nodes):
            if node == self._base:
                continue
            if not children[node]:
                packets.append(Packet(packet_id=node, source=node))
                self._released.add(node)
        if not packets:
            raise SimulationError("tree has no leaves; nothing to aggregate")
        return packets

    def expected_deliveries(self) -> int:
        """The run ends when every base-station child has reported."""
        return self.tree.root_degree()

    def on_data_arrival(self, packet: Packet, node: int) -> List[Packet]:
        """Absorb a child's aggregate; release ours when all have reported."""
        if node not in self._awaiting:
            raise SimulationError(
                f"leaf {node} received an aggregate from {packet.source}"
            )
        self._awaiting[node] -= 1
        if self._awaiting[node] < 0:
            raise SimulationError(f"node {node} over-reported children")
        if self._awaiting[node] == 0 and node not in self._released:
            self._released.add(node)
            return [Packet(packet_id=node, source=node)]
        return []

    def describe(self) -> str:
        """Policy name for reports."""
        return "Aggregation (ADDC MAC)"


def run_aggregation(
    topology,
    streams,
    eta_p_db: float = 8.0,
    eta_s_db: float = 8.0,
    alpha: float = 4.0,
    zeta_bound: str = "paper",
    blocking: str = "geometric",
    use_cds_tree: bool = True,
    max_slots: int = 2_000_000,
    contention_window_ms: float = 0.5,
    slot_duration_ms: float = 1.0,
):
    """Aggregate one snapshot to the base station; returns the result.

    Same PCR, same carrier sensing, same backoff MAC as
    :func:`repro.core.collector.run_addc_collection` — only the traffic
    pattern changes, so (collection delay / aggregation latency) isolates
    the cost of collecting *raw* data.
    """
    from repro.core.pcr import db_to_linear
    from repro.graphs.tree import build_bfs_tree, build_collection_tree
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
    builder = build_collection_tree if use_cds_tree else build_bfs_tree
    tree = builder(topology.secondary.graph, topology.secondary.base_station)
    policy = AggregationPolicy(tree)
    engine = SlottedEngine(
        topology=topology,
        sense_map=sense_map,
        policy=policy,
        streams=streams,
        alpha=alpha,
        eta_s=db_to_linear(eta_s_db),
        blocking=blocking,
        homogeneous_p_o=homogeneous_p_o,
        slot_duration_ms=slot_duration_ms,
        contention_window_ms=contention_window_ms,
        max_slots=max_slots,
    )
    engine.load_packets(
        policy.build_workload(),
        expected_deliveries=policy.expected_deliveries(),
    )
    return engine.run()
