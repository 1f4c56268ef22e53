"""Tests for path loss, SIR computation, sensing maps and opportunities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.analysis import opportunity_probability
from repro.core.pcr import PcrParameters, compute_pcr
from repro.errors import ConfigurationError
from repro.spectrum.opportunity import (
    mean_opportunity_probability,
    per_node_opportunity_probability,
)
from repro.spectrum.pathloss import path_loss, received_power
from repro.spectrum.sensing import CarrierSenseMap, sensing_at_pcr
from repro.spectrum.sir import SirValidator, sir_at_receiver


class TestPathLoss:
    def test_known_value(self):
        assert path_loss(2.0, 4.0) == pytest.approx(1.0 / 16.0)

    def test_received_power(self):
        assert received_power(10.0, 2.0, 4.0) == pytest.approx(10.0 / 16.0)

    def test_vectorized(self):
        values = received_power(10.0, np.array([1.0, 2.0]), 4.0)
        assert values.tolist() == pytest.approx([10.0, 0.625])

    def test_zero_distance_clamped(self):
        assert math.isfinite(float(received_power(10.0, 0.0, 4.0)))

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            path_loss(1.0, 2.0)

    def test_invalid_power(self):
        with pytest.raises(ConfigurationError):
            received_power(0.0, 1.0, 4.0)


class TestSirAtReceiver:
    def test_no_interference_is_infinite(self):
        sir = sir_at_receiver(
            np.array([0.0, 0.0]),
            np.array([1.0, 0.0]),
            10.0,
            np.empty((0, 2)),
            np.empty(0),
            4.0,
        )
        assert sir == float("inf")

    def test_hand_computed(self):
        # Signal from distance 1 (power 10), one interferer at distance 2
        # (power 10): SIR = 10 / (10 / 16) = 16.
        sir = sir_at_receiver(
            np.array([0.0, 0.0]),
            np.array([1.0, 0.0]),
            10.0,
            np.array([[2.0, 0.0]]),
            np.array([10.0]),
            4.0,
        )
        assert sir == pytest.approx(16.0)

    def test_mismatched_interferers(self):
        with pytest.raises(ConfigurationError):
            sir_at_receiver(
                np.zeros(2),
                np.ones(2),
                10.0,
                np.zeros((2, 2)),
                np.zeros(1),
                4.0,
            )


class TestSirValidator:
    def make(self):
        return SirValidator(
            alpha=4.0, eta_p=6.31, eta_s=6.31, pu_power=10.0, su_power=10.0
        )

    def test_isolated_links_pass(self):
        validator = self.make()
        report = validator.validate(
            pu_links=[(np.array([0.0, 0.0]), np.array([1.0, 0.0]))],
            su_links=[(np.array([1000.0, 0.0]), np.array([1001.0, 0.0]))],
        )
        assert report.all_ok
        assert report.min_margin_db > 0

    def test_close_links_fail(self):
        validator = self.make()
        report = validator.validate(
            pu_links=[],
            su_links=[
                (np.array([0.0, 0.0]), np.array([5.0, 0.0])),
                (np.array([7.0, 0.0]), np.array([12.0, 0.0])),
            ],
        )
        assert not report.su_ok
        assert not report.all_ok

    def test_pcr_separated_links_pass(self):
        # Two SU links separated by a PCR-scale distance must satisfy
        # Lemma 3's guarantee.
        validator = self.make()
        report = validator.validate(
            pu_links=[],
            su_links=[
                (np.array([0.0, 0.0]), np.array([10.0, 0.0])),
                (np.array([40.0, 0.0]), np.array([50.0, 0.0])),
            ],
        )
        assert report.su_ok

    def test_invalid_thresholds(self):
        with pytest.raises(ConfigurationError):
            SirValidator(4.0, 0.0, 1.0, 10.0, 10.0)


class TestCarrierSenseMap:
    def test_ranges(self, quick_topology):
        sense = CarrierSenseMap(quick_topology, 24.0, 10.0)
        assert sense.pu_protection_range == 24.0
        assert sense.su_csma_range == 10.0
        assert sense.sensing_range == 24.0

    def test_default_csma_range(self, quick_topology):
        sense = CarrierSenseMap(quick_topology, 24.0)
        assert sense.su_csma_range == 24.0

    def test_inversion_consistency(self, quick_topology):
        sense = CarrierSenseMap(quick_topology, 20.0)
        for pu, nodes in enumerate(sense.pu_hearers):
            for node in nodes:
                assert pu in sense.pus_heard_by[node]
        for node, pus in enumerate(sense.pus_heard_by):
            assert sense.pu_count_in_range(node) == len(pus)

    def test_su_neighbors_symmetric(self, quick_topology):
        sense = CarrierSenseMap(quick_topology, 15.0)
        for node, neighbors in enumerate(sense.su_neighbors):
            for other in neighbors:
                assert node in sense.su_neighbors[other]

    def test_hearing_matches_distance(self, quick_topology):
        sense = CarrierSenseMap(quick_topology, 18.0)
        su_positions = quick_topology.secondary.positions
        pu_positions = quick_topology.primary.positions
        for pu, nodes in enumerate(sense.pu_hearers):
            distances = np.hypot(
                *(su_positions - pu_positions[pu]).T
            )
            assert set(nodes) == set(np.nonzero(distances <= 18.0)[0].tolist())

    def test_csma_below_radius_rejected(self, quick_topology):
        with pytest.raises(ConfigurationError):
            CarrierSenseMap(quick_topology, 24.0, 5.0)

    def test_invalid_protection_range(self, quick_topology):
        with pytest.raises(ConfigurationError):
            CarrierSenseMap(quick_topology, -1.0)


class TestSensingAtPcr:
    THRESHOLDS = {"alpha": 4.0, "eta_p_db": 8.0, "eta_s_db": 8.0}

    def lemma7(self, topology, kappa, num_pus):
        return opportunity_probability(
            topology.primary.activity.stationary_probability,
            kappa,
            topology.secondary.radius,
            num_pus,
            topology.region.area,
        )

    def test_pcr_is_eq16_over_the_deployment(self, quick_topology):
        pcr, sense, _ = sensing_at_pcr(quick_topology, **self.THRESHOLDS)
        assert pcr == compute_pcr(
            PcrParameters(
                pu_power=quick_topology.primary.power,
                su_power=quick_topology.secondary.power,
                pu_radius=quick_topology.primary.radius,
                su_radius=quick_topology.secondary.radius,
                **self.THRESHOLDS,
            )
        )
        assert sense.pu_protection_range == pcr.pcr
        assert sense.su_csma_range == pcr.pcr

    def test_p_o_is_lemma7_bit_for_bit_on_one_channel(self, quick_topology):
        pcr, _, p_o = sensing_at_pcr(
            quick_topology, blocking="homogeneous", **self.THRESHOLDS
        )
        expected = self.lemma7(quick_topology, pcr.kappa, quick_topology.primary.num_pus)
        assert p_o.hex() == expected.hex()

    def test_p_o_counts_pus_per_channel(self, quick_topology):
        pcr, _, p_o = sensing_at_pcr(
            quick_topology, blocking="homogeneous", num_channels=3, **self.THRESHOLDS
        )
        num_pus = quick_topology.primary.num_pus
        assert p_o == self.lemma7(quick_topology, pcr.kappa, num_pus / 3)
        assert p_o > self.lemma7(quick_topology, pcr.kappa, num_pus)

    def test_p_t_overrides_the_stationary_probability(self, quick_topology):
        pcr, _, p_o = sensing_at_pcr(
            quick_topology, blocking="homogeneous", p_t=0.1, **self.THRESHOLDS
        )
        area = quick_topology.region.area
        radius = quick_topology.secondary.radius
        num_pus = quick_topology.primary.num_pus
        assert p_o == opportunity_probability(0.1, pcr.kappa, radius, num_pus, area)

    def test_geometric_blocking_has_no_p_o(self, quick_topology):
        assert sensing_at_pcr(quick_topology, **self.THRESHOLDS)[2] is None

    def test_su_csma_range_reaches_the_map(self, quick_topology):
        pcr, sense, _ = sensing_at_pcr(
            quick_topology, su_csma_range=12.0, **self.THRESHOLDS
        )
        assert sense.su_csma_range == 12.0
        assert sense.pu_protection_range == pcr.pcr


class TestOpportunity:
    def test_matches_counts(self, quick_topology):
        sense = CarrierSenseMap(quick_topology, 20.0)
        probabilities = per_node_opportunity_probability(sense, 0.3)
        for node, pus in enumerate(sense.pus_heard_by):
            assert probabilities[node] == pytest.approx(0.7 ** len(pus))

    def test_zero_activity_gives_certainty(self, quick_topology):
        sense = CarrierSenseMap(quick_topology, 20.0)
        assert (per_node_opportunity_probability(sense, 0.0) == 1.0).all()

    def test_mean_between_min_and_max(self, quick_topology):
        sense = CarrierSenseMap(quick_topology, 20.0)
        values = per_node_opportunity_probability(sense, 0.3)
        mean = mean_opportunity_probability(sense, 0.3)
        assert values.min() <= mean <= values.max()

    def test_invalid_pt(self, quick_topology):
        sense = CarrierSenseMap(quick_topology, 20.0)
        with pytest.raises(ConfigurationError):
            per_node_opportunity_probability(sense, 1.5)
