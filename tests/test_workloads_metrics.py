"""Tests for workload generation and cross-run metric aggregation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.metrics.aggregate import (
    relative_delay_reduction_percent,
    summarize_delays,
)
from repro.workloads.snapshot import partial_snapshot_workload, snapshot_workload


class TestSnapshotWorkload:
    def test_one_packet_per_su(self, quick_topology):
        packets = snapshot_workload(quick_topology.secondary)
        assert len(packets) == quick_topology.secondary.num_sus
        assert sorted(p.source for p in packets) == list(
            quick_topology.secondary.su_ids()
        )
        assert len({p.packet_id for p in packets}) == len(packets)

    def test_multiple_packets(self, quick_topology):
        packets = snapshot_workload(quick_topology.secondary, packets_per_su=3)
        assert len(packets) == 3 * quick_topology.secondary.num_sus

    def test_invalid_count(self, quick_topology):
        with pytest.raises(WorkloadError):
            snapshot_workload(quick_topology.secondary, packets_per_su=0)

    def test_partial_sources(self, quick_topology):
        packets = partial_snapshot_workload(quick_topology.secondary, [1, 5, 9])
        assert [p.source for p in packets] == [1, 5, 9]

    def test_partial_rejects_base_station(self, quick_topology):
        with pytest.raises(WorkloadError):
            partial_snapshot_workload(quick_topology.secondary, [0])


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
