"""Tests for the snapshot workload and cross-run metric aggregation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.metrics.aggregate import (
    relative_delay_reduction_percent,
    summarize_delays,
)
from tests.test_engine import make_engine


def _queued_packets(engine, topology):
    return [
        packet
        for node in topology.secondary.su_ids()
        for packet in engine._queues[node]
    ]


class TestSnapshotWorkload:
    """Section III's task as :meth:`SlottedEngine.load_snapshot` loads it."""

    def test_one_packet_per_su(self, quick_topology, streams):
        engine, _, _ = make_engine(quick_topology, streams.spawn("snapshot-1"))
        engine.load_snapshot()
        packets = _queued_packets(engine, quick_topology)
        assert len(packets) == quick_topology.secondary.num_sus
        assert sorted(p.source for p in packets) == list(
            quick_topology.secondary.su_ids()
        )
        assert len({p.packet_id for p in packets}) == len(packets)

    def test_multiple_packets(self, quick_topology, streams):
        engine, _, _ = make_engine(quick_topology, streams.spawn("snapshot-3"))
        engine.load_snapshot(packets_per_su=3)
        packets = _queued_packets(engine, quick_topology)
        assert len(packets) == 3 * quick_topology.secondary.num_sus

    def test_invalid_count(self, quick_topology, streams):
        engine, _, _ = make_engine(quick_topology, streams.spawn("snapshot-0"))
        with pytest.raises(ConfigurationError):
            engine.load_snapshot(packets_per_su=0)


class TestAggregation:
    def test_summary_statistics(self):
        stats = summarize_delays([10.0, 20.0, 30.0])
        assert stats.mean == 20.0
        assert stats.minimum == 10.0
        assert stats.maximum == 30.0
        assert stats.std == pytest.approx(10.0)
        assert stats.stderr == pytest.approx(10.0 / 3**0.5)

    def test_single_repetition(self):
        stats = summarize_delays([5.0])
        assert stats.std == 0.0
        assert stats.stderr == 0.0

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ConfigurationError):
            summarize_delays([])
        with pytest.raises(ConfigurationError):
            summarize_delays([1.0, float("inf")])

    def test_reduction_percent(self):
        # Coolest taking 3.66x ADDC's time = "266% less delay".
        assert relative_delay_reduction_percent(100.0, 366.0) == pytest.approx(266.0)

    def test_reduction_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            relative_delay_reduction_percent(0.0, 10.0)
