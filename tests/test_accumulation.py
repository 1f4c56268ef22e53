"""Measuring the paper's "data accumulation effect" directly.

Section V attributes Coolest's higher delay to accumulation: "many SUs
might choose the same path.  This will make the data accumulation effect
more serious."  With per-node peak-backlog tracking this becomes a
measurable claim rather than a narrative.
"""

from __future__ import annotations

from repro.core.collector import run_addc_collection
from repro.routing.coolest import run_coolest_collection


class TestBacklogTracking:
    def test_peaks_recorded(self, tiny_topology, streams):
        outcome = run_addc_collection(
            tiny_topology, streams.spawn("acc-1"), with_bounds=False
        )
        result = outcome.result
        assert result.peak_queue_lengths
        assert result.max_backlog >= 1
        # Every source held at least its own packet.
        for node in tiny_topology.secondary.su_ids():
            assert result.peak_queue_lengths.get(node, 0) >= 1

    def test_relays_accumulate_more_than_leaves(self, quick_topology, streams):
        outcome = run_addc_collection(
            quick_topology, streams.spawn("acc-2"), with_bounds=False
        )
        tree = outcome.tree
        peaks = outcome.result.peak_queue_lengths
        children = tree.children()
        leaf_peaks = [
            peaks.get(node, 0)
            for node in range(1, tree.num_nodes)
            if not children[node]
        ]
        relay_peaks = [
            peaks.get(node, 0)
            for node in range(1, tree.num_nodes)
            if children[node]
        ]
        assert max(relay_peaks) > max(leaf_peaks)

    def test_backlog_bounded_by_subtree(self, quick_topology, streams):
        outcome = run_addc_collection(
            quick_topology, streams.spawn("acc-3"), with_bounds=False
        )
        sizes = outcome.tree.subtree_sizes()
        for node, peak in outcome.result.peak_queue_lengths.items():
            assert peak <= sizes[node]

    def test_coolest_accumulates_more_than_addc(self, quick_topology, streams):
        """The paper's accumulation claim, measured: the converging coolest
        paths pile more packets onto their worst relay than ADDC's CDS
        tree piles onto its own."""
        addc = run_addc_collection(
            quick_topology,
            streams.spawn("acc-4"),
            blocking="homogeneous",
            with_bounds=False,
        )
        coolest = run_coolest_collection(
            quick_topology, streams.spawn("acc-5"), blocking="homogeneous"
        )
        assert addc.result.completed and coolest.result.completed
        assert coolest.result.max_backlog >= addc.result.max_backlog
