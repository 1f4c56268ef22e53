"""Golden regression anchors.

Pinned outputs of fixed-seed runs.  These exist to catch *accidental*
behavioural drift in the engine or its random streams: any change to
contention order, stream consumption, or adjudication semantics shows up
here first.  If a change is intentional, update the pinned values and say
why in the commit.
"""

from __future__ import annotations

import pytest

from repro.core.collector import run_addc_collection
from repro.core.pcr import PcrParameters, compute_pcr
from repro.experiments.config import ExperimentConfig
from repro.network.deployment import deploy_crn
from repro.routing.coolest import run_coolest_collection
from repro.rng import StreamFactory


@pytest.fixture(scope="module")
def golden_topology():
    config = ExperimentConfig(
        area=40.0 * 40.0, num_pus=10, num_sus=50, repetitions=1
    )
    return deploy_crn(config.deployment_spec(), StreamFactory(20120612).spawn("g"))


class TestGoldenValues:
    def test_pcr_constants(self):
        result = compute_pcr(PcrParameters())
        assert result.kappa == pytest.approx(3.128228205467164, abs=1e-9)
        result = compute_pcr(
            PcrParameters(pu_radius=10.0, eta_p_db=8.0, eta_s_db=8.0)
        )
        assert result.kappa == pytest.approx(2.4321126642154653, abs=1e-9)

    def test_addc_geometric_run(self, golden_topology):
        outcome = run_addc_collection(
            golden_topology,
            StreamFactory(20120612).spawn("g").spawn("addc"),
            with_bounds=False,
        )
        result = outcome.result
        assert result.completed
        # Pinned: any drift means the engine's behaviour changed.
        assert result.delay_slots == 2443
        assert result.total_transmissions == 158
        assert result.collisions == 26
        # Sensing tallies: waiters frozen by PU activity, ready nodes, and
        # slots with at least one ready node.
        assert result.frozen_slot_count == 10926
        assert result.opportunity_slot_count == 514
        assert result.contention_slot_count == 142
        assert outcome.engine.fastforward_slots == 2173
        assert outcome.engine.rng_positions() == {
            "pu-activity": "fb3172fe0093bb83",
            "backoff": "523fa29ac175f0b0",
            "sensing-errors": "b1ef2e0fe80ac39d",
        }

    def test_addc_homogeneous_run(self, golden_topology):
        outcome = run_addc_collection(
            golden_topology,
            StreamFactory(20120612).spawn("g").spawn("addc-h"),
            blocking="homogeneous",
            with_bounds=False,
        )
        result = outcome.result
        assert result.completed
        assert result.delay_slots == 1131
        assert result.frozen_slot_count == 8720
        assert result.opportunity_slot_count == 140
        assert result.contention_slot_count == 127
        # The frozen-slot fast-forward and the row-buffered streams must
        # skip the same slots and leave every stream where they did.
        assert outcome.engine.fastforward_slots == 905
        assert outcome.engine.rng_positions() == {
            "pu-activity": "1b0bd2ca5c8576de",
            "backoff": "beac4f315b5834cd",
            "sensing-errors": "5bcf126d88213de2",
        }

    def test_coolest_run(self, golden_topology):
        outcome = run_coolest_collection(
            golden_topology,
            StreamFactory(20120612).spawn("g").spawn("coolest"),
        )
        result = outcome.result
        assert result.completed
        assert result.delay_slots == 7363
        assert result.frozen_slot_count == 24081
        assert result.opportunity_slot_count == 1305
        assert result.contention_slot_count == 466
        assert outcome.engine.fastforward_slots == 6446
        assert outcome.engine.rng_positions() == {
            "pu-activity": "d2461589a66f1a6f",
            "backoff": "02cff7fe4c1ca6b1",
            "sensing-errors": "8f104b00920690fc",
        }
