"""Golden anchors for the extension subsystems.

Companion to ``test_golden_regression.py``: fixed-seed pinned outputs for
multi-channel, aggregation, unicast and centralized runs, so semantic
drift in any extension path is caught immediately.  Update deliberately,
never casually.
"""

from __future__ import annotations

import pytest

from repro.core.aggregation import run_aggregation
from repro.core.collector import run_addc_collection
from repro.experiments.config import ExperimentConfig
from repro.experiments.connectivity import delay_vs_distance
from repro.network.deployment import deploy_crn
from repro.routing.unicast import run_unicast
from repro.rng import StreamFactory
from repro.scheduling.centralized import run_centralized_collection


@pytest.fixture(scope="module")
def golden_topology():
    config = ExperimentConfig(
        area=40.0 * 40.0, num_pus=10, num_sus=50, repetitions=1
    )
    return deploy_crn(config.deployment_spec(), StreamFactory(20120612).spawn("g"))


class TestGoldenExtensions:
    def test_multichannel_run(self, golden_topology):
        outcome = run_addc_collection(
            golden_topology,
            StreamFactory(20120612).spawn("g").spawn("mc"),
            num_channels=3,
            with_bounds=False,
        )
        result = outcome.result
        assert result.completed
        assert result.delay_slots == 98
        # Three channels draw per-channel rows and a channel plan: pin
        # where every stream stopped, not just the outcome.
        assert outcome.engine.rng_positions() == {
            "pu-activity": "0649dd6098b5b3b9",
            "backoff": "79bafc87ee38a9df",
            "sensing-errors": "c2f9bf6385b7ed51",
        }

    def test_multichannel_homogeneous_run(self, golden_topology):
        # Lemma 7's p_o over N/C PUs per channel drives the blocking rows.
        outcome = run_addc_collection(
            golden_topology,
            StreamFactory(20120612).spawn("g").spawn("mc"),
            num_channels=3,
            blocking="homogeneous",
            with_bounds=False,
        )
        result = outcome.result
        assert result.completed
        assert result.delay_slots == 85
        assert result.total_transmissions == 143
        assert outcome.engine.rng_positions() == {
            "pu-activity": "2b2ce6fc069f8a22",
            "backoff": "c0cb33cc6ad208b4",
            "sensing-errors": "c2f9bf6385b7ed51",
        }

    def test_aggregation_run(self, golden_topology):
        result = run_aggregation(
            golden_topology, StreamFactory(20120612).spawn("g").spawn("agg")
        )
        assert result.completed
        assert result.delay_slots == 565

    def test_aggregation_homogeneous_run(self, golden_topology):
        result = run_aggregation(
            golden_topology,
            StreamFactory(20120612).spawn("g").spawn("agg"),
            blocking="homogeneous",
        )
        assert result.completed
        assert result.delay_slots == 309

    def test_unicast_run(self, golden_topology):
        _, result = run_unicast(
            golden_topology,
            StreamFactory(20120612).spawn("g").spawn("uni"),
            flows=[(3, 17), (21, 6)],
        )
        assert result.completed
        assert result.delay_slots == 51

    def test_unicast_homogeneous_run(self, golden_topology):
        _, result = run_unicast(
            golden_topology,
            StreamFactory(20120612).spawn("g").spawn("uni"),
            flows=[(3, 17), (21, 6)],
            blocking="homogeneous",
        )
        assert result.completed
        assert result.delay_slots == 291

    def test_delay_vs_distance(self, golden_topology):
        # Homogeneous by default: every flow's engine shares one p_o.
        rows = delay_vs_distance(
            golden_topology,
            StreamFactory(20120612).spawn("g").spawn("dist"),
            num_flows=4,
        )
        assert [(hops, slots) for _, hops, slots in rows] == [
            (1, 68),
            (2, 89),
            (3, 120),
            (4, 86),
        ]

    def test_centralized_run(self, golden_topology):
        result = run_centralized_collection(
            golden_topology, StreamFactory(20120612).spawn("g").spawn("cen")
        )
        assert result.completed
        assert result.delay_slots == 1028
