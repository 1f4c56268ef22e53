"""Tests for simulation results, packets, and the trace log."""

from __future__ import annotations

import pytest

from repro.sim.packet import DATA, RREP, RREQ, Packet
from repro.sim.results import PacketRecord, SimulationResult
from repro.sim.trace import TraceEvent, TraceKind, TraceLog


class TestPacket:
    def test_defaults(self):
        packet = Packet(packet_id=1, source=5)
        assert packet.is_data
        assert packet.kind == DATA
        assert packet.route is None

    def test_route_end(self):
        packet = Packet(packet_id=1, source=5, kind=RREQ, route=[5, 3, 0])
        assert not packet.at_route_end
        packet.route_pos = 2
        assert packet.at_route_end

    def test_control_not_data(self):
        assert not Packet(packet_id=1, source=5, kind=RREP).is_data


class TestPacketRecord:
    def test_delay(self):
        record = PacketRecord(
            packet_id=0, source=1, birth_slot=10, delivered_slot=19, hops=3
        )
        assert record.delay_slots == 10


class TestSimulationResult:
    def make_completed(self):
        result = SimulationResult(num_packets=2, slot_duration_ms=1.0)
        result.completed = True
        result.slots_simulated = 10
        result.deliveries = [
            PacketRecord(0, 1, 0, 4, 2),
            PacketRecord(1, 2, 0, 9, 4),
        ]
        result.tx_attempts = {1: 3, 2: 5}
        return result

    def test_delay_and_capacity(self):
        result = self.make_completed()
        assert result.delay_slots == 10
        assert result.delay_ms == 10.0
        assert result.capacity_packets_per_slot == pytest.approx(0.2)

    def test_mean_statistics(self):
        result = self.make_completed()
        assert result.mean_hops == 3.0
        assert result.mean_packet_delay_slots == pytest.approx(7.5)
        assert result.total_transmissions == 8

    def test_incomplete_run_has_no_delay(self):
        result = SimulationResult(num_packets=5, slot_duration_ms=1.0)
        result.slots_simulated = 100
        assert result.delay_slots is None
        assert result.delay_ms is None
        assert result.capacity_packets_per_slot is None
        assert "INCOMPLETE" in result.summary()

    def test_completed_summary(self):
        assert "completed" in self.make_completed().summary()


class TestTraceLog:
    def event(self, slot=0, kind=TraceKind.TX_START, node=1):
        return TraceEvent(slot=slot, kind=kind, node=node)

    def test_append_and_iterate(self):
        log = TraceLog()
        log.record(self.event(0))
        log.record(self.event(1))
        assert len(log) == 2
        assert [e.slot for e in log] == [0, 1]

    def test_of_kind_and_for_node(self):
        log = TraceLog()
        log.record(self.event(kind=TraceKind.TX_START, node=1))
        log.record(self.event(kind=TraceKind.FREEZE, node=2))
        assert len(log.of_kind(TraceKind.FREEZE)) == 1
        assert len(log.for_node(1)) == 1

    def test_for_node_matches_both_sides_of_a_tx(self):
        # Regression: a TX event touches transmitter AND receiver; the
        # receiver's view used to come back empty.
        log = TraceLog()
        tx = TraceEvent(slot=3, kind=TraceKind.TX_START, node=1, peer=2)
        log.record(tx)
        assert log.for_node(1) == [tx]  # transmitter side
        assert log.for_node(2) == [tx]  # receiver (peer) side
        assert log.for_node(3) == []

    def test_unbounded_repr(self):
        log = TraceLog()
        log.record(self.event(0))
        assert repr(log) == "TraceLog(events=1)"
