"""More scripted-RNG MAC semantics: collision hold-off and multi-slot flow."""

from __future__ import annotations

import numpy as np

from repro.core.addc import AddcPolicy
from repro.core.pcr import db_to_linear
from repro.geometry.region import SquareRegion
from repro.graphs.tree import build_collection_tree
from repro.network.primary import BernoulliActivity, PrimaryNetwork
from repro.network.secondary import SecondaryNetwork
from repro.network.topology import CrnTopology
from repro.sim.engine import SlottedEngine
from repro.sim.trace import TraceKind, TraceLog
from repro.spectrum.sensing import CarrierSenseMap

from tests.test_mac_semantics import ScriptedStreams


def hidden_terminal_topology() -> CrnTopology:
    """Four nodes in a line: 1 - 0(base) - 2 - 3 (8 units apart each).

    Nodes 1 and 2 are both base-station children 8 apart — inside each
    other's radius-10 CSMA range, so varied timers serialize them cleanly,
    while *identical* timers tie and collide at the shared receiver.
    Nodes 1 and 3 (24 apart) are mutually hidden and transmit
    concurrently; at these distances their links' SIRs tolerate it.
    """
    secondary = SecondaryNetwork(
        positions=np.array(
            [[12.0, 15.0], [4.0, 15.0], [20.0, 15.0], [28.0, 15.0]]
        ),
        power=10.0,
        radius=10.0,
    )
    primary = PrimaryNetwork(
        positions=np.empty((0, 2)),
        power=10.0,
        radius=10.0,
        activity=BernoulliActivity(0.0),
    )
    return CrnTopology(
        region=SquareRegion(32.0), primary=primary, secondary=secondary
    )


class TestCollisionHoldOff:
    def test_exponential_backoff_spaces_retries_geometrically(self):
        """Two base-station children with *identical* scripted timers
        collide at the root every joint attempt (capture tie plus SIR
        failure) and, with identical hold draws, re-synchronize forever —
        a deterministic worst case that lays the exponential backoff bare:
        the gap between consecutive collision slots must double until the
        window cap."""
        topology = hidden_terminal_topology()
        sense_map = CarrierSenseMap(
            topology,
            pu_protection_range=24.0,
            su_csma_range=10.0,
        )
        tree = build_collection_tree(topology.secondary.graph, 0)
        trace = TraceLog()
        engine = SlottedEngine(
            topology=topology,
            sense_map=sense_map,
            policy=AddcPolicy(tree),
            streams=ScriptedStreams({"backoff": [0.5]}),
            alpha=4.0,
            eta_s=db_to_linear(8.0),
            max_slots=100,
            trace=trace,
        )
        engine.load_snapshot()
        result = engine.run()
        # The synchronized pair never resolves (scripted randomness keeps
        # them in lock step) — real runs desynchronize via fresh draws.
        assert not result.completed
        collision_slots = sorted(
            {event.slot for event in trace.of_kind(TraceKind.TX_COLLISION)}
        )
        assert collision_slots[:7] == [0, 2, 5, 10, 19, 36, 69]
        gaps = [b - a for a, b in zip(collision_slots, collision_slots[1:])]
        # Hold-off = 1 + floor(0.5 * 2^k): each retry gap ~doubles.
        assert all(later >= earlier for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[0] == 2 and gaps[-1] >= 16

    def test_distinct_draws_break_the_tie(self):
        """The same topology with varied timers never ties: the two base
        station children serialize through carrier sensing (they are
        within each other's CSMA range) and the run completes promptly and
        collision-free."""
        topology = hidden_terminal_topology()
        sense_map = CarrierSenseMap(
            topology, pu_protection_range=24.0, su_csma_range=10.0
        )
        tree = build_collection_tree(topology.secondary.graph, 0)
        script = list(np.random.default_rng(3).random(512))
        engine = SlottedEngine(
            topology=topology,
            sense_map=sense_map,
            policy=AddcPolicy(tree),
            streams=ScriptedStreams({"backoff": script}),
            alpha=4.0,
            eta_s=db_to_linear(8.0),
            max_slots=5000,
        )
        engine.load_snapshot()
        result = engine.run()
        assert result.completed
        assert result.collisions == 0
        assert result.delay_slots <= 10


class TestMultiSlotFlow:
    def test_two_slot_packet_blocks_neighbor_both_slots(self):
        from tests.test_mac_semantics import two_su_topology

        topology = two_su_topology()
        sense_map = CarrierSenseMap(topology, 24.0)
        tree = build_collection_tree(topology.secondary.graph, 0)
        trace = TraceLog()
        engine = SlottedEngine(
            topology=topology,
            sense_map=sense_map,
            policy=AddcPolicy(tree),
            streams=ScriptedStreams({"backoff": [0.2, 0.8, 0.5]}),
            alpha=4.0,
            eta_s=db_to_linear(8.0),
            packet_slots=2,
            max_slots=100,
            trace=trace,
        )
        engine.load_snapshot()
        result = engine.run()
        assert result.completed
        successes = trace.of_kind(TraceKind.TX_SUCCESS)
        # Node 2 wins slot 0, transmits through slot 1, delivering at
        # slot 1; node 1 is blocked both slots and can start at slot 2 at
        # the earliest, delivering at slot 3.
        assert successes[0].node == 2 and successes[0].slot == 1
        assert successes[1].node == 1 and successes[1].slot >= 3
