"""Tests for runtime node departures (mid-run churn with live repair)."""

from __future__ import annotations

import pytest

from repro.core.collector import run_addc_collection
from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultEvent, FaultPlan


def crashes(*events):
    """A fault plan of crash-stop departures, one per ``(slot, node)``."""
    return FaultPlan.from_events(
        [FaultEvent.crash(slot, node) for slot, node in events]
    )


class TestRuntimeDepartures:
    def test_run_completes_with_losses_accounted(self, quick_topology, streams):
        outcome = run_addc_collection(
            quick_topology,
            streams.spawn("dep-1"),
            blocking="homogeneous",
            fault_plan=crashes((50, 5), (300, 9), (300, 14)),
            with_bounds=False,
        )
        result = outcome.result
        assert result.completed
        # A scheduled leaver may already have been partitioned away by an
        # earlier departure, in which case its departure is a no-op.
        assert 1 <= result.nodes_departed <= 3
        # A departed source's packet survives if it escaped up the tree
        # before the departure, so losses count *stranded* packets — at
        # least one here, and the books must balance exactly.
        assert result.packets_lost >= 1
        n = quick_topology.secondary.num_sus
        assert result.delivered + result.packets_lost == n

    def test_departure_before_any_slot(self, quick_topology, streams):
        outcome = run_addc_collection(
            quick_topology,
            streams.spawn("dep-2"),
            blocking="homogeneous",
            fault_plan=crashes((0, 7)),
            with_bounds=False,
        )
        result = outcome.result
        assert result.completed
        assert result.packets_lost >= 1

    def test_no_departures_is_lossless(self, quick_topology, streams):
        outcome = run_addc_collection(
            quick_topology,
            streams.spawn("dep-3"),
            blocking="homogeneous",
            with_bounds=False,
        )
        assert outcome.result.packets_lost == 0
        assert outcome.result.nodes_departed == 0

    def test_relay_departure_loses_queued_traffic(self, quick_topology, streams):
        """Killing a busy relay mid-run loses more packets than killing a
        leaf: whatever sat in its queue dies with it."""
        tree_probe = run_addc_collection(
            quick_topology,
            streams.spawn("dep-4"),
            blocking="homogeneous",
            with_bounds=False,
        )
        sizes = tree_probe.tree.subtree_sizes()
        relay = max(
            range(1, tree_probe.tree.num_nodes), key=lambda node: sizes[node]
        )
        outcome = run_addc_collection(
            quick_topology,
            streams.spawn("dep-5"),
            blocking="homogeneous",
            fault_plan=crashes((200, relay)),
            with_bounds=False,
        )
        result = outcome.result
        assert result.completed
        assert result.packets_lost >= 1
        n = quick_topology.secondary.num_sus
        assert result.delivered + result.packets_lost == n

    def test_survivors_reroute_around_departure(self, quick_topology, streams):
        """A departed relay's children keep delivering through their new
        parents whenever the repair finds one."""
        probe = run_addc_collection(
            quick_topology,
            streams.spawn("dep-6"),
            blocking="homogeneous",
            with_bounds=False,
        )
        children = probe.tree.children()
        relay = next(
            node
            for node in range(1, probe.tree.num_nodes)
            if len(children[node]) >= 2
        )
        outcome = run_addc_collection(
            quick_topology,
            streams.spawn("dep-7"),
            blocking="homogeneous",
            fault_plan=crashes((1, relay)),
            with_bounds=False,
        )
        result = outcome.result
        assert result.completed
        delivered_sources = {record.source for record in result.deliveries}
        rerouted = [
            child for child in children[relay] if child in delivered_sources
        ]
        # In this dense deployment at least one child finds a new parent.
        assert rerouted

    def test_bad_schedules_rejected(self, quick_topology, streams):
        with pytest.raises(ConfigurationError):
            run_addc_collection(
                quick_topology,
                streams.spawn("dep-8"),
                fault_plan=crashes((10, 0)),  # the base station
                with_bounds=False,
            )
        with pytest.raises(ConfigurationError):
            run_addc_collection(
                quick_topology,
                streams.spawn("dep-9"),
                fault_plan=crashes((-3, 5)),
                with_bounds=False,
            )

    def test_policy_without_hook_rejected(self, quick_topology, streams):
        # Coolest grew departure hooks with the fault subsystem, so a
        # bare stub stands in for a policy that lacks them.
        from repro.core.pcr import PcrParameters, compute_pcr, db_to_linear
        from repro.graphs.tree import build_collection_tree
        from repro.sim.engine import SlottedEngine
        from repro.spectrum.sensing import CarrierSenseMap

        class HooklessPolicy:
            fairness_wait = False

            def __init__(self, tree):
                self._tree = tree

            def next_hop(self, node, packet):
                return self._tree.parent[node]

            def describe(self):
                return "hookless"

        pcr = compute_pcr(PcrParameters(pu_radius=10.0))
        sense_map = CarrierSenseMap(quick_topology, pcr.pcr)
        tree = build_collection_tree(
            quick_topology.secondary.graph,
            quick_topology.secondary.base_station,
        )
        policy = HooklessPolicy(tree)
        engine = SlottedEngine(
            topology=quick_topology,
            sense_map=sense_map,
            policy=policy,
            streams=streams.spawn("dep-10"),
            alpha=4.0,
            eta_s=db_to_linear(8.0),
            fault_plan=crashes((5, 3)),
            max_slots=100_000,
        )
        engine.load_snapshot()
        with pytest.raises(SimulationError):
            engine.run()

    def test_deterministic_with_departures(self, quick_topology, streams):
        results = [
            run_addc_collection(
                quick_topology,
                streams.spawn("dep-11"),
                blocking="homogeneous",
                fault_plan=crashes((100, 4)),
                with_bounds=False,
            ).result
            for _ in range(2)
        ]
        assert results[0].delay_slots == results[1].delay_slots
        assert results[0].packets_lost == results[1].packets_lost
