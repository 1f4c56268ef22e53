"""An oracle centralized scheduler for tree-based data collection.

Every slot, a coordinator with global knowledge:

1. observes the true PU activity (perfect, instantaneous sensing),
2. lists every *ready* tree link — a backlogged node whose protection
   range is PU-free this slot, and
3. greedily activates a maximal compatible subset: transmitters pairwise
   at least the PCR apart (so the activated set is a concurrent set by
   Lemmas 2-3) with distinct receivers, preferring transmitters with
   longer queues, then those closer to the base station.

This is the synchronized, centrally-coordinated regime the paper's related
work ([12], [13], [23], [24]) analyzes; comparing its delay against ADDC
measures the price of distributed asynchronous operation, which Theorem 2
predicts is a constant factor.

The scheduler reuses the snapshot workload, PU activity models and metrics
of the engine but none of its contention machinery — there is nothing to
contend for when a coordinator assigns the slots.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.graphs.tree import CollectionTree, build_collection_tree
from repro.network.topology import CrnTopology
from repro.rng import StreamFactory
from repro.sim.packet import Packet
from repro.sim.results import PacketRecord, SimulationResult
from repro.spectrum.blocking import GeometricBlocking
from repro.spectrum.sensing import CarrierSenseMap, sensing_at_pcr

__all__ = ["CentralizedScheduler", "run_centralized_collection"]


class CentralizedScheduler:
    """Slot-by-slot oracle scheduling over a collection tree.

    Parameters
    ----------
    topology:
        The deployed CRN.
    tree:
        The routing structure (any spanning tree; ADDC's CDS tree by
        default in :func:`run_centralized_collection`).
    sense_map:
        PU-protection incidence at the PCR (who is blocked by which PU)
        plus the SU separation requirement.
    streams:
        Stream factory; consumes the ``"pu-activity"`` stream — pass the
        same child factory as an ADDC run for a paired comparison.
    max_slots:
        Safety cap, as in the engine.
    """

    def __init__(
        self,
        topology: CrnTopology,
        tree: CollectionTree,
        sense_map: CarrierSenseMap,
        streams: StreamFactory,
        aggregation: bool = False,
        slot_duration_ms: float = 1.0,
        max_slots: int = 2_000_000,
    ) -> None:
        if max_slots < 1:
            raise ConfigurationError(f"max_slots must be >= 1, got {max_slots}")
        self.aggregation = bool(aggregation)
        children = tree.children()
        self._awaiting = {
            node: len(kids)
            for node, kids in enumerate(children)
            if kids and node != tree.root
        }
        self.topology = topology
        self.tree = tree
        self.sense_map = sense_map
        self.slot_duration_ms = float(slot_duration_ms)
        self.max_slots = int(max_slots)
        # The engine's geometric spectrum process on the same streams:
        # the oracle sees the exact PU activity realization the engine
        # simulates (paired comparison, docs/DESIGN.md).
        self._spectrum = GeometricBlocking(topology, sense_map, streams)

        num_nodes = topology.secondary.num_nodes
        self._queues: List[Deque[Packet]] = [deque() for _ in range(num_nodes)]
        self._positions = topology.secondary.positions
        self._base = topology.secondary.base_station
        self._separation = sense_map.pu_protection_range
        self._slot = 0
        self._started = False
        self._result = SimulationResult(
            num_packets=0, slot_duration_ms=self.slot_duration_ms
        )

    def load_snapshot(self, packets_per_su: int = 1) -> None:
        """Give every SU ``packets_per_su`` fresh packets.

        In aggregation mode only the leaves start loaded (interiors
        release their single aggregate when every child has reported) and
        the run ends when each base-station child has delivered.
        """
        if self._started:
            raise SimulationError("cannot load a workload into a running scheduler")
        if packets_per_su < 1:
            raise ConfigurationError(
                f"packets_per_su must be >= 1, got {packets_per_su}"
            )
        if self.aggregation:
            if packets_per_su != 1:
                raise ConfigurationError(
                    "aggregation collects one aggregate per node"
                )
            for node in self.topology.secondary.su_ids():
                if node not in self._awaiting:
                    self._queues[node].append(
                        Packet(packet_id=node, source=node, birth_slot=0)
                    )
            self._result.num_packets = self.tree.root_degree()
            return
        packet_id = 0
        for node in self.topology.secondary.su_ids():
            for _ in range(packets_per_su):
                self._queues[node].append(
                    Packet(packet_id=packet_id, source=node, birth_slot=0)
                )
                packet_id += 1
        self._result.num_packets = packet_id

    def run(self) -> SimulationResult:
        """Schedule until every packet is delivered or ``max_slots`` pass."""
        if self._result.num_packets == 0:
            raise SimulationError("no workload loaded; call load_snapshot() first")
        if self._started:
            raise SimulationError("scheduler instances are single-use")
        self._started = True
        while self._result.delivered < self._result.num_packets:
            if self._slot >= self.max_slots:
                self._result.completed = False
                self._result.slots_simulated = self._slot
                return self._result
            self._spectrum.advance(initial=not self._slot)
            self._schedule_slot()
            self._slot += 1

        self._result.completed = True
        self._result.slots_simulated = self._slot
        return self._result

    def _ready_transmitters(self) -> List[int]:
        """Backlogged, PU-free nodes this slot, in scheduling priority.

        Longer queues first (drain hotspots), then smaller tree depth
        (favor progress near the base station), then node id.
        """
        backlogged = [
            node
            for node, queue in enumerate(self._queues)
            if queue and node != self._base
        ]
        busy = self._spectrum.sense(np.array(backlogged, dtype=np.int64), None)
        ready = [node for node, blocked in zip(backlogged, busy.tolist()) if not blocked]
        ready.sort(
            key=lambda node: (
                -len(self._queues[node]),
                self.tree.depth[node],
                node,
            )
        )
        return ready

    def _schedule_slot(self) -> None:
        chosen: List[int] = []
        chosen_positions: List[np.ndarray] = []
        receivers_taken: Dict[int, int] = {}
        separation_sq = self._separation * self._separation
        for node in self._ready_transmitters():
            receiver = self.tree.parent[node]
            if receiver in receivers_taken:
                continue
            # A transmitting node cannot simultaneously receive.
            if receiver in chosen or node in receivers_taken:
                continue
            position = self._positions[node]
            compatible = True
            for other in chosen_positions:
                dx = position[0] - other[0]
                dy = position[1] - other[1]
                if dx * dx + dy * dy < separation_sq:
                    compatible = False
                    break
            if not compatible:
                continue
            chosen.append(node)
            chosen_positions.append(position)
            receivers_taken[receiver] = node

        if chosen:
            histogram = self._result.concurrent_tx_histogram
            histogram[len(chosen)] = histogram.get(len(chosen), 0) + 1
        for node in chosen:
            receiver = self.tree.parent[node]
            packet = self._queues[node].popleft()
            packet.hops += 1
            self._result.tx_attempts[node] = (
                self._result.tx_attempts.get(node, 0) + 1
            )
            self._result.tx_successes[node] = (
                self._result.tx_successes.get(node, 0) + 1
            )
            if receiver == self._base:
                self._result.deliveries.append(
                    PacketRecord(
                        packet_id=packet.packet_id,
                        source=packet.source,
                        birth_slot=packet.birth_slot,
                        delivered_slot=self._slot,
                        hops=packet.hops,
                    )
                )
            elif self.aggregation:
                self._awaiting[receiver] -= 1
                if self._awaiting[receiver] == 0:
                    self._queues[receiver].append(
                        Packet(packet_id=receiver, source=receiver, birth_slot=0)
                    )
            else:
                self._queues[receiver].append(packet)


def run_centralized_collection(
    topology: CrnTopology,
    streams: StreamFactory,
    eta_p_db: float = 8.0,
    eta_s_db: float = 8.0,
    alpha: float = 4.0,
    zeta_bound: str = "paper",
    aggregation: bool = False,
    max_slots: int = 2_000_000,
    slot_duration_ms: float = 1.0,
) -> SimulationResult:
    """Collect one snapshot with the oracle centralized scheduler.

    Uses the same CDS tree and PCR separation as ADDC, so the measured gap
    isolates what coordination and synchronization buy.
    ``aggregation=True`` schedules the aggregation convergecast instead —
    the minimum-latency aggregation setting of Wan et al. [25].
    """
    _, sense_map, _ = sensing_at_pcr(
        topology,
        alpha=alpha,
        eta_p_db=eta_p_db,
        eta_s_db=eta_s_db,
        zeta_bound=zeta_bound,
    )
    tree = build_collection_tree(
        topology.secondary.graph, topology.secondary.base_station
    )
    scheduler = CentralizedScheduler(
        topology=topology,
        tree=tree,
        sense_map=sense_map,
        streams=streams,
        aggregation=aggregation,
        slot_duration_ms=slot_duration_ms,
        max_slots=max_slots,
    )
    scheduler.load_snapshot()
    return scheduler.run()
