"""Tests for trace-based time breakdowns."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.collector import run_addc_collection
from repro.errors import ConfigurationError
from repro.metrics.breakdown import hop_latencies, packet_journey
from repro.sim.trace import TraceKind, TraceLog


@pytest.fixture(scope="module")
def traced_run(tiny_topology, streams):
    trace = TraceLog()
    outcome = run_addc_collection(
        tiny_topology, streams.spawn("traced"), trace=trace, with_bounds=False
    )
    assert outcome.result.completed
    return trace, outcome.result


class TestPacketJourney:
    def test_journey_ends_with_delivery(self, traced_run):
        trace, result = traced_run
        record = result.deliveries[0]
        journey = packet_journey(trace, record.packet_id)
        kinds = [event.kind for event in journey]
        assert kinds[-1] is TraceKind.DELIVERY
        assert kinds.count(TraceKind.TX_SUCCESS) == record.hops

    def test_slots_monotone(self, traced_run):
        trace, result = traced_run
        journey = packet_journey(trace, result.deliveries[-1].packet_id)
        slots = [event.slot for event in journey]
        assert slots == sorted(slots)

    def test_unknown_packet(self, traced_run):
        trace, _ = traced_run
        with pytest.raises(ConfigurationError):
            packet_journey(trace, 10**9)


class TestNodeActivity:
    def test_counts_match_result(self, traced_run):
        """The trace's per-node attempts, successes and collisions are the
        result's."""
        trace, result = traced_run
        counts = Counter((event.node, event.kind) for event in trace)
        for node, attempts in result.tx_attempts.items():
            assert counts[node, TraceKind.TX_START] == attempts
        for node, successes in result.tx_successes.items():
            assert counts[node, TraceKind.TX_SUCCESS] == successes
        total_collisions = sum(
            n for (_, kind), n in counts.items() if kind is TraceKind.TX_COLLISION
        )
        assert total_collisions == result.collisions


class TestHopLatencies:
    def test_sum_equals_delay(self, traced_run):
        trace, result = traced_run
        for record in result.deliveries[:10]:
            latencies = hop_latencies(trace, record.packet_id)
            assert len(latencies) == record.hops
            assert sum(latencies) == record.delay_slots

    def test_all_positive(self, traced_run):
        trace, result = traced_run
        for record in result.deliveries[:10]:
            assert all(lat >= 1 for lat in hop_latencies(trace, record.packet_id))
