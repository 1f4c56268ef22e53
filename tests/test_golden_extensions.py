"""Golden anchors for the extension subsystems.

Companion to ``test_golden_regression.py``: fixed-seed pinned outputs for
multi-channel, aggregation, unicast and centralized runs, and for every
opt-in path of the slot engine (imperfect sensing, the energy detector,
multi-slot packets, faults, periodic arrivals, channel strategies), so
semantic drift in any extension path is caught immediately.  Update
deliberately, never casually.
"""

from __future__ import annotations

import pytest

from repro.core.addc import AddcPolicy
from repro.core.aggregation import run_aggregation
from repro.core.collector import run_addc_collection
from repro.core.pcr import db_to_linear
from repro.experiments.config import ExperimentConfig
from repro.experiments.connectivity import delay_vs_distance
from repro.faults.plan import FaultEvent, FaultPlan
from repro.graphs.tree import build_collection_tree
from repro.network.deployment import deploy_crn
from repro.routing.unicast import run_unicast
from repro.rng import StreamFactory
from repro.scheduling.centralized import run_centralized_collection
from repro.sim.engine import SlottedEngine
from repro.spectrum.detection import EnergyDetector
from repro.spectrum.sensing import sensing_at_pcr


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


def _pinned(engine, result):
    """What an extension-path pin records about one finished run."""
    assert result.completed
    return {
        "delay": result.delay_slots,
        "collisions": result.collisions,
        "transmissions": result.total_transmissions,
        "handoffs": result.handoffs,
        "pu_violations": result.pu_violations,
        "packets_lost": result.packets_lost,
        "blackout_failures": result.blackout_failures,
        "faults": [
            (r.kind, r.node, r.slot, r.recovered_slot, r.packets_orphaned)
            for r in result.fault_records
        ],
        "fastforward_slots": engine.fastforward_slots,
        "rng": engine.rng_positions(),
    }


def _addc(topology, label, **kwargs):
    outcome = run_addc_collection(
        topology,
        StreamFactory(20120612).spawn("g").spawn(label),
        with_bounds=False,
        **kwargs,
    )
    return _pinned(outcome.engine, outcome.result)


def _quiet(**overrides):
    """Pinned outputs of a run that touched no fault, loss or handoff."""
    pinned = {
        "handoffs": 0,
        "pu_violations": 0,
        "packets_lost": 0,
        "blackout_failures": 0,
        "faults": [],
    }
    pinned.update(overrides)
    return pinned


class TestGoldenEnginePaths:
    """One pin per opt-in engine path, results and stream positions."""

    def test_flat_sensing_errors(self, golden_topology):
        assert _addc(
            golden_topology, "sense", p_false_alarm=0.05, p_missed_detection=0.1
        ) == _quiet(
            delay=551,
            collisions=132,
            transmissions=264,
            pu_violations=170,
            fastforward_slots=254,
            rng={
                "pu-activity": "a6afc4d400200c3e",
                "backoff": "fb645c3b635511bc",
                "sensing-errors": "08a91abc605fcc03",
            },
        )

    def test_false_alarms_under_the_mean_field(self, golden_topology):
        assert _addc(
            golden_topology, "sense", p_false_alarm=0.05, blocking="homogeneous"
        ) == _quiet(
            delay=1064,
            collisions=0,
            transmissions=132,
            fastforward_slots=833,
            rng={
                "pu-activity": "c511c1cb9fff065a",
                "backoff": "7e92f62299e57e2a",
                "sensing-errors": "0fc1fe3cf3cab403",
            },
        )

    def test_energy_detector(self, golden_topology):
        _, sense_map, _ = sensing_at_pcr(
            golden_topology, alpha=4.0, eta_p_db=8.0, eta_s_db=8.0
        )
        tree = build_collection_tree(
            golden_topology.secondary.graph,
            golden_topology.secondary.base_station,
        )
        # A noisy detector: boundary PUs go unheard, violations follow.
        engine = SlottedEngine(
            topology=golden_topology,
            sense_map=sense_map,
            policy=AddcPolicy(tree),
            streams=StreamFactory(20120612).spawn("g").spawn("det"),
            eta_s=db_to_linear(8.0),
            detector=EnergyDetector(
                threshold=1.15, num_samples=200, noise_power=5e-2
            ),
        )
        engine.load_snapshot()
        assert _pinned(engine, engine.run()) == _quiet(
            delay=4365,
            collisions=261,
            transmissions=393,
            pu_violations=345,
            fastforward_slots=0,
            rng={
                "pu-activity": "066d6b060cdb7d6b",
                "backoff": "71f1ed2911d92bba",
                "sensing-errors": "61383c9acddf3573",
            },
        )

    def test_three_slot_packets_hand_off(self):
        # At the golden p_t = 0.3 three-slot packets starve under
        # geometric blocking; a quieter primary network lets them finish.
        config = ExperimentConfig(
            area=40.0 * 40.0, num_pus=10, num_sus=50, repetitions=1, p_t=0.05
        )
        topology = deploy_crn(
            config.deployment_spec(), StreamFactory(20120612).spawn("g")
        )
        assert _addc(topology, "long", packet_slots=3) == _quiet(
            delay=652,
            collisions=1,
            transmissions=133,
            handoffs=185,
            fastforward_slots=49,
            rng={
                "pu-activity": "9e2cd75559be179e",
                "backoff": "5a318b6cf45b578a",
                "sensing-errors": "4fc42c8f25c80f24",
            },
        )

    def test_three_slot_packets_under_the_mean_field(self, golden_topology):
        assert _addc(
            golden_topology,
            "long",
            packet_slots=3,
            blocking="homogeneous",
            p_t=0.05,
        ) == _quiet(
            delay=552,
            collisions=0,
            transmissions=132,
            handoffs=298,
            fastforward_slots=1,
            rng={
                "pu-activity": "936458bacd1faa36",
                "backoff": "2bbdec7ae06b59d2",
                "sensing-errors": "4fc42c8f25c80f24",
            },
        )

    def test_every_fault_kind(self, golden_topology):
        plan = FaultPlan.from_events(
            [
                FaultEvent.crash(5, 3),
                FaultEvent.outage(40, 13, 200),
                FaultEvent.stuck_busy(20, 17, 150),
                FaultEvent.stuck_idle(20, 22, 150),
                FaultEvent.link_degradation(10, 4, 0, 400, 20.0),
                FaultEvent.bs_blackout(60, 90),
            ]
        )
        assert _addc(golden_topology, "faults", fault_plan=plan) == {
            "delay": 2003,
            "collisions": 22,
            "transmissions": 151,
            "handoffs": 0,
            "pu_violations": 1,
            "packets_lost": 1,
            "blackout_failures": 2,
            "faults": [
                ("crash", 3, 5, None, 1),
                ("link-degradation", 4, 10, 400, 0),
                ("stuck-busy", 17, 20, 150, 0),
                ("stuck-idle", 22, 20, 150, 0),
                ("outage", 13, 40, 200, 0),
                ("bs-blackout", -1, 60, 90, 0),
            ],
            "fastforward_slots": 1634,
            "rng": {
                "pu-activity": "5ff4919611958e1a",
                "backoff": "6800fb1bfa3af872",
                "sensing-errors": "91ce434e49c97236",
            },
        }

    def test_periodic_arrivals(self, golden_topology):
        assert _addc(
            golden_topology, "periodic", rounds=3, period_slots=400
        ) == _quiet(
            delay=5475,
            collisions=52,
            transmissions=448,
            fastforward_slots=4723,
            rng={
                "pu-activity": "c33a12a4567edf47",
                "backoff": "65cd0a76c8eddb3f",
                "sensing-errors": "f09dcfe18383b915",
            },
        )

    def test_periodic_arrivals_under_the_mean_field(self, golden_topology):
        assert _addc(
            golden_topology,
            "periodic",
            rounds=3,
            period_slots=400,
            blocking="homogeneous",
        ) == _quiet(
            delay=2691,
            collisions=0,
            transmissions=396,
            fastforward_slots=2030,
            rng={
                "pu-activity": "d07c957b54f2d0f4",
                "backoff": "8cbb77a0612fb0a6",
                "sensing-errors": "f09dcfe18383b915",
            },
        )

    @pytest.mark.parametrize(
        "strategy, pinned",
        [
            (
                "sticky",
                _quiet(
                    delay=84,
                    collisions=0,
                    transmissions=132,
                    fastforward_slots=0,
                    rng={
                        "pu-activity": "684cd655858ab7cf",
                        "backoff": "9648fa09c2e3e8fa",
                        "sensing-errors": "c2f9bf6385b7ed51",
                    },
                ),
            ),
            (
                "least-blocked",
                _quiet(
                    delay=84,
                    collisions=0,
                    transmissions=132,
                    fastforward_slots=0,
                    rng={
                        "pu-activity": "684cd655858ab7cf",
                        "backoff": "9648fa09c2e3e8fa",
                        "sensing-errors": "c2f9bf6385b7ed51",
                    },
                ),
            ),
            (
                "adaptive",
                _quiet(
                    delay=132,
                    collisions=15,
                    transmissions=147,
                    fastforward_slots=0,
                    rng={
                        "pu-activity": "38788e2f7fe1939b",
                        "backoff": "69f30ae8f49cf8b9",
                        "sensing-errors": "c2f9bf6385b7ed51",
                    },
                ),
            ),
        ],
    )
    def test_channel_strategy(self, golden_topology, strategy, pinned):
        assert (
            _addc(
                golden_topology, "mc", num_channels=3, channel_strategy=strategy
            )
            == pinned
        )
