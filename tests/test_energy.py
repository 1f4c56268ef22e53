"""Tests for the energy accounting."""

from __future__ import annotations

import pytest

from repro.core.collector import run_addc_collection
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.faults.plan import FaultEvent, FaultPlan
from repro.metrics.energy import EnergyModel, energy_consumption
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory
from repro.routing.coolest import run_coolest_collection


class TestEnergyModel:
    def test_defaults_valid(self):
        model = EnergyModel()
        assert model.tx_per_slot > model.listen_per_slot

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(tx_per_slot=-1.0)


class TestEnergyConsumption:
    @pytest.fixture(scope="class")
    def outcome(self, tiny_topology, streams):
        return run_addc_collection(
            tiny_topology, streams.spawn("energy-1"), with_bounds=False
        )

    def test_totals_add_up(self, outcome):
        report = energy_consumption(outcome.result)
        assert report.total_joules == pytest.approx(
            report.tx_joules + report.rx_joules + report.listen_joules
        )
        assert report.total_joules == pytest.approx(
            sum(report.per_node_joules.values())
        )

    def test_tx_energy_matches_attempts(self, outcome):
        model = EnergyModel()
        report = energy_consumption(outcome.result, model)
        expected = outcome.result.total_transmissions * model.tx_per_slot
        assert report.tx_joules == pytest.approx(expected)

    def test_listening_dominates_under_scarce_spectrum(self, outcome):
        # With p_o ~ 1-10%, nodes spend most of their time waiting: the
        # idle-listen share dwarfs the transmit share even at 20x lower
        # per-slot cost.
        report = energy_consumption(outcome.result)
        assert report.listen_joules > report.tx_joules

    def test_per_packet_metric(self, outcome):
        report = energy_consumption(outcome.result)
        per_packet = report.per_delivered_packet(outcome.result.delivered)
        assert per_packet > 0
        with pytest.raises(ConfigurationError):
            report.per_delivered_packet(0)

    def test_packet_length_scales_radio_energy(self, outcome):
        short = energy_consumption(outcome.result, packet_slots=1)
        long = energy_consumption(outcome.result, packet_slots=2)
        assert long.tx_joules == pytest.approx(2 * short.tx_joules)
        assert long.listen_joules == pytest.approx(short.listen_joules)

    def test_coolest_burns_more_energy_than_addc(self, quick_topology, streams):
        """Control traffic and retransmissions show up on the battery:
        the baseline's radio energy exceeds ADDC's on the same task."""
        addc = run_addc_collection(
            quick_topology,
            streams.spawn("energy-2"),
            blocking="homogeneous",
            with_bounds=False,
        )
        coolest = run_coolest_collection(
            quick_topology, streams.spawn("energy-3"), blocking="homogeneous"
        )
        addc_report = energy_consumption(addc.result)
        coolest_report = energy_consumption(coolest.result)
        assert coolest_report.tx_joules > addc_report.tx_joules
        assert coolest_report.total_joules > addc_report.total_joules


class TestListeningSpans:
    """Every way out of contention bills the listening span up to it."""

    @pytest.fixture(scope="class")
    def topology(self):
        config = ExperimentConfig.quick_scale()
        return deploy_crn(config.deployment_spec(), StreamFactory(7).spawn("t"))

    @staticmethod
    def collect(topology, **kwargs):
        return run_addc_collection(
            topology,
            StreamFactory(7).spawn("p"),
            blocking="homogeneous",
            with_bounds=False,
            **kwargs,
        ).result

    def test_a_crashed_node_is_billed_through_its_crash_slot(self, topology):
        # Leaf node 3 contends from slot 0 and drains its queue at slot 40.
        assert self.collect(topology).active_slot_spans[3] == 41
        crashed = self.collect(
            topology, fault_plan=FaultPlan.from_events([FaultEvent.crash(21, 3)])
        )
        assert crashed.completed
        assert crashed.active_slot_spans[3] == 22
        assert set(crashed.active_slot_spans) == set(topology.secondary.su_ids())

    def test_a_capped_run_bills_the_nodes_still_contending(self, topology):
        capped = self.collect(topology, max_slots=30)
        assert not capped.completed
        spans = capped.active_slot_spans
        assert set(spans) == set(topology.secondary.su_ids())
        # Spans end at the last simulated slot, 29: a node contending
        # throughout listened 30 slots, and none listened longer.
        assert max(spans.values()) == 30
        assert energy_consumption(capped).listen_joules == pytest.approx(
            sum(spans.values()) * EnergyModel().listen_per_slot
        )
