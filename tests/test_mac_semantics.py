"""Slot-by-slot MAC semantics under scripted randomness.

These tests replace the RNG with scripted streams so every backoff value
is chosen by the test, then assert the exact contention outcome the
MODEL.md semantics prescribe: who wins each slot, what remainder a frozen
node keeps, and how the fairness wait shifts the next round.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

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


class ScriptedRng:
    """Minimal numpy-Generator stand-in replaying scripted values.

    ``random()`` pops from the script (cycling its last value when
    exhausted); the vector forms (``size`` or ``out``) return constants
    sized to match.
    """

    def __init__(self, script: List[float]):
        self._script = list(script)
        self._cursor = 0

    def _next(self) -> float:
        if self._cursor < len(self._script):
            value = self._script[self._cursor]
            self._cursor += 1
            return value
        return self._script[-1] if self._script else 0.5

    def random(self, size=None, out=None):
        if out is not None:
            out[...] = self._next()
            return out
        if size is None:
            return self._next()
        return np.full(size, self._next())

    def integers(self, low, high=None, size=None):
        if high is None:
            low, high = 0, low
        span = max(int(high) - int(low), 1)
        if size is None:
            return int(low) + int(self._next() * span)
        return np.full(size, int(low) + int(self._next() * span), dtype=int)


class ScriptedStreams:
    """StreamFactory stand-in dispensing scripted per-name streams."""

    def __init__(self, scripts: Dict[str, List[float]]):
        self._scripts = scripts

    def stream(self, name: str) -> ScriptedRng:
        return ScriptedRng(self._scripts.get(name, [0.5]))

    def spawn(self, name: str) -> "ScriptedStreams":
        return self


def two_su_topology() -> CrnTopology:
    """Base station plus two SUs, everyone inside one contention domain."""
    secondary = SecondaryNetwork(
        positions=np.array([[15.0, 15.0], [11.0, 12.0], [19.0, 12.0]]),
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
        region=SquareRegion(30.0), primary=primary, secondary=secondary
    )


def make_engine(backoff_script: List[float], fairness=True, packets=1):
    """Engine over the 2-SU topology with scripted backoff draws.

    The engine converts a draw ``u`` into the timer ``tau_c * (1 - u)``,
    so a script value of e.g. 0.6 yields a 0.2 ms timer (tau_c = 0.5).
    """
    topology = two_su_topology()
    sense_map = CarrierSenseMap(topology, 24.0)
    tree = build_collection_tree(topology.secondary.graph, 0)
    trace = TraceLog()
    engine = SlottedEngine(
        topology=topology,
        sense_map=sense_map,
        policy=AddcPolicy(tree, fairness_wait=fairness),
        streams=ScriptedStreams({"backoff": backoff_script}),
        alpha=4.0,
        eta_s=db_to_linear(8.0),
        max_slots=1000,
        trace=trace,
    )
    engine.load_snapshot(packets_per_su=packets)
    return engine, trace


def winners_by_slot(trace: TraceLog) -> List[int]:
    return [event.node for event in trace.of_kind(TraceKind.TX_SUCCESS)]


class TestContentionOrder:
    def test_smaller_timer_wins_the_first_slot(self):
        # Draws: node 1 gets u=0.2 -> timer 0.4; node 2 gets u=0.8 ->
        # timer 0.1.  Node 2 must transmit first.
        engine, trace = make_engine([0.2, 0.8])
        engine.run()
        assert winners_by_slot(trace)[0] == 2

    def test_frozen_node_keeps_remainder_and_wins_next_slot(self):
        engine, trace = make_engine([0.2, 0.8, 0.5, 0.5])
        engine.run()
        # Slot 0: node 2 wins at 0.1; node 1 freezes having counted 0.1 of
        # its 0.4 timer (remainder 0.3).  Node 2 is done (single packet),
        # so slot 1 belongs to node 1.
        assert winners_by_slot(trace) == [2, 1]
        freeze = trace.of_kind(TraceKind.FREEZE)[0]
        assert freeze.node == 1
        assert freeze.time_in_slot == pytest.approx(0.1)

    def test_exact_freeze_consumption(self):
        engine, trace = make_engine([0.0, 0.9, 0.5, 0.5], packets=1)
        engine.run()
        # Node 1 timer 0.5, node 2 timer 0.05: node 2 wins at 0.05 and
        # node 1's remainder is 0.45 — visible as its slot-1 start time.
        starts = {
            (event.node, event.slot): event.time_in_slot
            for event in trace.of_kind(TraceKind.TX_START)
        }
        assert starts[(2, 0)] == pytest.approx(0.05)
        assert starts[(1, 1)] == pytest.approx(0.45)


class TestFairnessWait:
    def test_wait_plus_fresh_draw_delays_second_packet(self):
        # Both nodes hold 2 packets.  Node 2 draws timer 0.1 (u=0.8) and
        # wins slot 0; its next-round expiry is wait (0.5 - 0.1 = 0.4)
        # plus a fresh 0.25 timer (u=0.5) = 0.65... but expiries are
        # within-slot: node 1's frozen remainder 0.3 beats it in slot 1.
        engine, trace = make_engine([0.2, 0.8, 0.5, 0.5, 0.5, 0.5], packets=2)
        engine.run()
        assert winners_by_slot(trace)[:3] == [2, 1, 2]

    def test_without_wait_winner_can_repeat(self):
        # Same draws, fairness off: node 2's next expiry is just the fresh
        # 0.25 timer vs node 1's 0.3 remainder -> node 2 wins again.
        engine, trace = make_engine(
            [0.2, 0.8, 0.5, 0.5, 0.5, 0.5], fairness=False, packets=2
        )
        engine.run()
        assert winners_by_slot(trace)[:2] == [2, 2]


class TestDeliveryBookkeeping:
    def test_all_packets_delivered_in_order(self):
        engine, trace = make_engine([0.2, 0.8, 0.5, 0.5], packets=1)
        result = engine.run()
        assert result.completed
        assert result.delay_slots == 2
        deliveries = trace.of_kind(TraceKind.DELIVERY)
        assert [event.peer for event in deliveries] == [2, 1]
