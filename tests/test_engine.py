"""Behavioural tests of the slotted contention engine.

These assert the invariants Algorithm 1 promises: carrier sensing blocks
concurrent transmissions inside the CSMA range, PU-blocked nodes stay
silent, the SIR guarantee of Lemma 3 holds for every concurrent set ADDC
produces, and the fairness property behind Theorem 1 shows up in the
transmission schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.spectrum.blocking as blocking_module
from repro.core.addc import AddcPolicy
from repro.core.collector import run_addc_collection
from repro.core.pcr import PcrParameters, compute_pcr, db_to_linear
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import ExperimentConfig
from repro.geometry.distance import euclidean
from repro.graphs.tree import build_collection_tree
from repro.network.channels import ChannelPlan
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory
from repro.routing.coolest import run_coolest_collection
from repro.scheduling.centralized import CentralizedScheduler
from repro.sim.engine import SlottedEngine
from repro.sim.packet import Packet
from repro.sim.trace import TraceKind, TraceLog
from repro.spectrum.sensing import CarrierSenseMap
from repro.spectrum.sir import SirValidator


def make_engine(topology, streams, csma_range=None, trace=None, slot_hook=None,
                fairness=True, blocking="geometric", homogeneous_p_o=None,
                max_slots=200_000):
    params = PcrParameters(
        alpha=4.0,
        pu_power=topology.primary.power,
        su_power=topology.secondary.power,
        pu_radius=topology.primary.radius,
        su_radius=topology.secondary.radius,
        eta_p_db=8.0,
        eta_s_db=8.0,
    )
    pcr = compute_pcr(params)
    sense_map = CarrierSenseMap(topology, pcr.pcr, csma_range)
    tree = build_collection_tree(
        topology.secondary.graph, topology.secondary.base_station
    )
    engine = SlottedEngine(
        topology=topology,
        sense_map=sense_map,
        policy=AddcPolicy(tree, fairness_wait=fairness),
        streams=streams,
        alpha=4.0,
        eta_s=db_to_linear(8.0),
        blocking=blocking,
        homogeneous_p_o=homogeneous_p_o,
        max_slots=max_slots,
        trace=trace,
        slot_hook=slot_hook,
    )
    return engine, sense_map, pcr


class TestCompletion:
    def test_all_packets_delivered(self, tiny_topology, streams):
        engine, _, _ = make_engine(tiny_topology, streams.spawn("e1"))
        engine.load_snapshot()
        result = engine.run()
        assert result.completed
        assert result.delivered == tiny_topology.secondary.num_sus
        assert engine.total_queued() == 0

    def test_each_source_delivers_exactly_once(self, tiny_topology, streams):
        engine, _, _ = make_engine(tiny_topology, streams.spawn("e2"))
        engine.load_snapshot()
        result = engine.run()
        sources = sorted(record.source for record in result.deliveries)
        assert sources == list(tiny_topology.secondary.su_ids())

    def test_hops_match_tree_depth(self, tiny_topology, streams):
        engine, _, _ = make_engine(tiny_topology, streams.spawn("e3"))
        tree = engine.policy.tree
        engine.load_snapshot()
        result = engine.run()
        for record in result.deliveries:
            assert record.hops == tree.depth[record.source]

    def test_determinism(self, tiny_topology, streams):
        results = []
        for _ in range(2):
            engine, _, _ = make_engine(tiny_topology, streams.spawn("same"))
            engine.load_snapshot()
            results.append(engine.run())
        assert results[0].delay_slots == results[1].delay_slots
        assert results[0].tx_attempts == results[1].tx_attempts

    def test_max_slots_cap(self, tiny_topology, streams):
        engine, _, _ = make_engine(tiny_topology, streams.spawn("e4"), max_slots=3)
        engine.load_snapshot()
        result = engine.run()
        assert not result.completed
        assert result.slots_simulated == 3


class TestCarrierSensingInvariants:
    def test_no_concurrent_transmitters_within_csma_range(
        self, tiny_topology, streams
    ):
        positions = tiny_topology.secondary.positions
        violations = []

        def hook(engine):
            links = engine.last_slot_su_links
            for i, (tx_a, _) in enumerate(links):
                for tx_b, _ in links[i + 1 :]:
                    if (
                        euclidean(positions[tx_a], positions[tx_b])
                        <= engine.sense_map.su_csma_range
                    ):
                        violations.append((engine.slot, tx_a, tx_b))

        engine, _, _ = make_engine(tiny_topology, streams.spawn("e5"), slot_hook=hook)
        engine.load_snapshot()
        engine.run()
        assert violations == []

    def test_pu_blocked_nodes_stay_silent(self, tiny_topology, streams):
        violations = []

        def hook(engine):
            if not engine.last_slot_active_pus:
                return
            pu_positions = engine.topology.primary.positions
            su_positions = engine.topology.secondary.positions
            protection = engine.sense_map.pu_protection_range
            for tx, _ in engine.last_slot_su_links:
                for pu in engine.last_slot_active_pus:
                    if euclidean(su_positions[tx], pu_positions[pu]) <= protection:
                        violations.append((engine.slot, tx, pu))

        engine, _, _ = make_engine(tiny_topology, streams.spawn("e6"), slot_hook=hook)
        engine.load_snapshot()
        engine.run()
        assert violations == []

    def test_addc_concurrent_sets_satisfy_lemma3_sir(self, tiny_topology, streams):
        """Empirical check of Lemmas 2-3: every concurrent set ADDC emits
        passes the physical SIR model for the secondary links."""
        validator = SirValidator(
            alpha=4.0,
            eta_p=db_to_linear(8.0),
            eta_s=db_to_linear(8.0),
            pu_power=tiny_topology.primary.power,
            su_power=tiny_topology.secondary.power,
        )
        su_positions = tiny_topology.secondary.positions
        failures = []

        def hook(engine):
            links = [
                (su_positions[tx], su_positions[rx])
                for tx, rx in engine.last_slot_su_links
            ]
            if not links:
                return
            # Secondary links against each other (the Lemma 3 guarantee for
            # a stand-alone secondary network; active PUs are all beyond
            # the protection range of every transmitter).
            report = validator.validate(pu_links=[], su_links=links)
            if not report.su_ok:
                failures.append(engine.slot)

        engine, _, _ = make_engine(tiny_topology, streams.spawn("e7"), slot_hook=hook)
        engine.load_snapshot()
        result = engine.run()
        assert result.completed
        assert failures == []

    def test_addc_standalone_has_no_collisions(self, standalone_topology, streams):
        # Lemma 3's setting: a stand-alone secondary network.  The PCR makes
        # ADDC collision-free, and the SIR adjudication agrees.
        engine, _, _ = make_engine(standalone_topology, streams.spawn("e8"))
        engine.load_snapshot()
        result = engine.run()
        assert result.completed
        assert result.collisions == 0

    def test_paper_zeta_bound_admits_rare_pu_interference(
        self, tiny_topology, streams
    ):
        """The paper's c2 rests on the reversed inequality zeta(x) <= 1/(x-1),
        so its PCR slightly *under*-protects against cumulative PU
        interference: a small SIR-failure rate is expected.  The corrected
        bounds restore the guarantee (next test)."""
        engine, _, _ = make_engine(tiny_topology, streams.spawn("e8b"))
        engine.load_snapshot()
        result = engine.run()
        assert result.completed
        # Failures stay a minority of attempts even where the paper's bound
        # under-protects; the corrected bounds below eliminate them.
        assert result.collisions <= 0.5 * result.total_transmissions

    def test_corrected_zeta_bound_restores_guarantee(self, tiny_topology, streams):
        from repro.core.collector import run_addc_collection

        for variant in ("safe", "exact"):
            outcome = run_addc_collection(
                tiny_topology,
                streams.spawn(f"e8c-{variant}"),
                zeta_bound=variant,
                with_bounds=False,
            )
            assert outcome.result.completed
            assert outcome.result.collisions == 0

    def test_small_csma_range_produces_collisions(self, quick_topology, streams):
        engine, _, _ = make_engine(
            quick_topology,
            streams.spawn("e9"),
            csma_range=quick_topology.secondary.radius,
        )
        engine.load_snapshot()
        result = engine.run()
        assert result.completed
        assert result.collisions > 0


class TestFairness:
    @staticmethod
    def _two_su_topology():
        """The exact setting of property P's proof: two competing SUs.

        Both SUs are base-station children inside each other's PCR; the
        primary network is absent (the proof first assumes a stand-alone
        secondary network).
        """
        import numpy as np

        from repro.geometry.region import SquareRegion
        from repro.network.primary import BernoulliActivity, PrimaryNetwork
        from repro.network.secondary import SecondaryNetwork
        from repro.network.topology import CrnTopology

        region = SquareRegion(30.0)
        secondary = SecondaryNetwork(
            positions=np.array([[15.0, 15.0], [11.0, 12.0], [19.0, 12.0]]),
            power=10.0,
            radius=10.0,
        )
        primary = PrimaryNetwork(
            positions=np.empty((0, 2)),
            power=10.0,
            radius=10.0,
            activity=BernoulliActivity(0.0),
        )
        return CrnTopology(region=region, primary=primary, secondary=secondary)

    def test_theorem1_two_packet_property(self, streams):
        """Property P of Theorem 1: before a backlogged SU transmits one
        packet, a competing PCR neighbor transmits at most two.

        The paper proves P for exactly two competing SUs in a stand-alone
        secondary network (Fig. 5); with more contenders the post-
        transmission wait elapses in wall-clock time while third nodes hold
        the channel, so the pairwise bound does not compose — Theorem 1's
        aggregate form is checked separately below.
        """
        topology = self._two_su_topology()
        trace = TraceLog()
        engine, _, _ = make_engine(topology, streams.spawn("e10"), trace=trace)
        engine.load_snapshot(packets_per_su=8)
        result = engine.run()
        assert result.completed
        successes = trace.of_kind(TraceKind.TX_SUCCESS)
        schedule = [event.node for event in successes]
        for node, other in ((1, 2), (2, 1)):
            positions = [i for i, winner in enumerate(schedule) if winner == node]
            for start, end in zip(positions, positions[1:]):
                between = schedule[start + 1 : end].count(other)
                assert between <= 2, (
                    f"node {other} transmitted {between} packets while "
                    f"node {node} was backlogged"
                )

    def test_theorem1_service_time_bound(self, standalone_topology, streams):
        """Theorem 1's aggregate claim, stand-alone case (p_o = 1): a
        backlogged SU serves at least one packet every
        ``2 Delta beta(kappa) + 24 beta(kappa+1) - 1`` slots."""
        from repro.core.analysis import theorem1_service_bound_slots

        trace = TraceLog()
        engine, _, pcr = make_engine(
            standalone_topology, streams.spawn("e10b"), trace=trace
        )
        tree = engine.policy.tree
        bound = theorem1_service_bound_slots(pcr.kappa, tree.max_degree(), 1.0)
        engine.load_snapshot(packets_per_su=2)
        result = engine.run()
        assert result.completed
        successes = trace.of_kind(TraceKind.TX_SUCCESS)
        per_node_slots: dict = {}
        for event in successes:
            per_node_slots.setdefault(event.node, []).append(event.slot)
        for node, slots in per_node_slots.items():
            # First service from the task start, then gaps between services
            # while backlogged.
            gaps = [slots[0]] + [b - a for a, b in zip(slots, slots[1:])]
            assert max(gaps) <= bound

    def test_fairness_wait_spreads_service(self, quick_topology, streams):
        from repro.core.fairness import jain_index

        def service_fairness(fairness):
            engine, _, _ = make_engine(
                quick_topology, streams.spawn(f"fair-{fairness}"), fairness=fairness
            )
            engine.load_snapshot()
            result = engine.run()
            # Fairness of inter-delivery service among sources still active
            # in the first half of the run.
            half = result.delay_slots // 2
            early_counts = {}
            for record in result.deliveries:
                if record.delivered_slot <= half:
                    early_counts[record.source] = (
                        early_counts.get(record.source, 0) + 1
                    )
            return result

        with_wait = service_fairness(True)
        without_wait = service_fairness(False)
        # Both complete; the fairness wait must not break completion.
        assert with_wait.completed and without_wait.completed


class TestHomogeneousBlocking:
    def test_blocking_rate_matches_p_o(self, tiny_topology, streams):
        p_o = 0.25
        engine, _, _ = make_engine(
            tiny_topology,
            streams.spawn("e11"),
            blocking="homogeneous",
            homogeneous_p_o=p_o,
        )
        engine.load_snapshot()
        result = engine.run()
        assert result.completed
        # frozen_slot_count / (frozen + ready) estimates 1 - p_o.
        total = result.frozen_slot_count + result.opportunity_slot_count
        observed_blocked = result.frozen_slot_count / total
        assert abs(observed_blocked - (1.0 - p_o)) < 0.05

    def test_homogeneous_needs_p_o(self, tiny_topology, streams):
        with pytest.raises(ConfigurationError):
            make_engine(
                tiny_topology, streams.spawn("e12"), blocking="homogeneous"
            )

    def test_invalid_blocking_mode(self, tiny_topology, streams):
        with pytest.raises(ConfigurationError):
            make_engine(tiny_topology, streams.spawn("e13"), blocking="bogus")


class TestPuBusyCounts:
    """A busy count must hold every PU an SU can hear: in ``uint8``, 256
    active PUs count as 0 and the SU reads its spectrum as free."""

    @pytest.fixture(scope="class")
    def crowded(self):
        config = ExperimentConfig(
            area=20.0 * 20.0, num_pus=256, num_sus=8, p_t=0.5, repetitions=1
        )
        factory = StreamFactory(5)
        topology = deploy_crn(config.deployment_spec(), factory.spawn("crowded"))
        return topology, factory

    def hearing_all(self, topology, sense_map):
        return next(
            node
            for node in topology.secondary.su_ids()
            if len(sense_map.pus_heard_by[node]) == 256
        )

    def test_an_su_hearing_256_active_pus_is_blocked(self, crowded):
        topology, factory = crowded
        engine, sense_map, _ = make_engine(topology, factory.spawn("engine"))
        node = self.hearing_all(topology, sense_map)
        engine.spectrum._set_states(np.ones(256, dtype=bool))
        assert engine.spectrum.busy_counts([node]).tolist() == [256]
        assert engine.spectrum.busy_channels(node)[0]

    def test_the_centralized_scheduler_counts_them_too(self, crowded):
        topology, factory = crowded
        _, sense_map, _ = make_engine(topology, factory.spawn("engine"))
        tree = build_collection_tree(
            topology.secondary.graph, topology.secondary.base_station
        )
        scheduler = CentralizedScheduler(
            topology, tree, sense_map, factory.spawn("central")
        )
        node = self.hearing_all(topology, sense_map)
        scheduler._spectrum._set_states(np.ones(256, dtype=bool))
        assert scheduler._spectrum.busy_counts([node]).tolist() == [256]

    def test_float32_products_equal_the_integer_product(self, crowded):
        """Both per-slot products run in float32 (BLAS); on random PU
        states and with every PU active they give the integer counts."""
        topology, factory = crowded
        engine, sense_map, _ = make_engine(topology, factory.spawn("engine"))
        tree = build_collection_tree(
            topology.secondary.graph, topology.secondary.base_station
        )
        scheduler = CentralizedScheduler(
            topology, tree, sense_map, factory.spawn("central")
        )
        incidence = sense_map.pu_incidence()
        rng = np.random.default_rng(11)
        for states in [rng.random(256) < p for p in (0.05, 0.5, 0.95)] + [
            np.ones(256, dtype=bool)
        ]:
            expected = incidence @ states.astype(incidence.dtype)
            engine.spectrum._set_states(states)
            counts = engine.spectrum.busy_counts(np.arange(len(expected)))
            assert counts.dtype == incidence.dtype
            np.testing.assert_array_equal(counts, expected)
            scheduler._spectrum._set_states(states)
            assert (
                scheduler._spectrum.busy_counts(np.arange(len(expected))).tolist()
                == expected.tolist()
            )

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("blocking", ["geometric", "homogeneous"])
    def test_busy_counts_come_in_the_incidence_dtype(self, crowded, blocking, channels):
        """Either model, one channel or C, hands out busy counts in the
        dtype of the sense map's PU incidence (uint16 for 256 PUs)."""
        topology, factory = crowded
        _, sense_map, _ = make_engine(topology, factory.spawn("engine"))
        engine = SlottedEngine(
            topology,
            sense_map,
            AddcPolicy(
                build_collection_tree(
                    topology.secondary.graph, topology.secondary.base_station
                )
            ),
            factory.spawn("dtype"),
            blocking=blocking,
            homogeneous_p_o=0.5,
            channel_plan=(
                None
                if channels == 1
                else ChannelPlan.uniform(256, channels, np.random.default_rng(3))
            ),
        )
        engine.spectrum.advance(initial=True)
        counts = engine.spectrum.busy_counts(np.arange(topology.secondary.num_nodes))
        assert counts.dtype == sense_map.pu_incidence().dtype == np.uint16

    @pytest.mark.parametrize("blocking", ["geometric", "homogeneous"])
    def test_multichannel_counts_equal_the_per_channel_integer_products(
        self, crowded, blocking
    ):
        """The static channel loads are each channel's integer count with
        every PU on, under either blocking model; under geometric blocking
        one float32 product over the PU -> channel one-hot gives each
        channel's integer count (a product over that channel's PUs only)."""
        topology, factory = crowded
        _, sense_map, _ = make_engine(topology, factory.spawn("engine"))
        plan = ChannelPlan.uniform(256, 3, np.random.default_rng(3))
        engine = SlottedEngine(
            topology,
            sense_map,
            AddcPolicy(
                build_collection_tree(
                    topology.secondary.graph, topology.secondary.base_station
                )
            ),
            factory.spawn("multichannel"),
            blocking=blocking,
            homogeneous_p_o=0.5,
            channel_plan=plan,
        )
        incidence = sense_map.pu_incidence()
        by_channel = [incidence[:, plan.pus_on_channel(c)] for c in range(3)]
        assert engine.spectrum.channel_loads == [
            columns.sum(axis=1).tolist() for columns in by_channel
        ]
        if blocking == "homogeneous":
            return  # the mean field counts no PU states
        rng = np.random.default_rng(12)
        for states in [rng.random(256) < p for p in (0.05, 0.5, 0.95)] + [
            np.ones(256, dtype=bool)
        ]:
            engine.spectrum._set_states(states)
            counts = engine.spectrum.busy_counts(np.arange(incidence.shape[0]))
            for channel, columns in enumerate(by_channel):
                ids = plan.pus_on_channel(channel)
                np.testing.assert_array_equal(
                    counts[:, channel],
                    columns @ states[ids].astype(incidence.dtype),
                )

    @pytest.mark.parametrize("num_pus", [3, 255, 256, 4000])
    def test_float32_counts_stay_exact_on_random_incidence(self, num_pus):
        rng = np.random.default_rng(num_pus)
        incidence = (rng.random((60, num_pus)) < 0.2).astype(
            np.min_scalar_type(num_pus)
        )
        incidence[0] = 1  # one node hears every PU
        as_float = incidence.astype(np.float32)
        for states in (rng.random((5, num_pus)) < 0.5, np.ones((1, num_pus), bool)):
            expected = states.astype(incidence.dtype) @ incidence.T
            counts = (states.astype(np.float32) @ as_float.T).astype(
                incidence.dtype
            )
            np.testing.assert_array_equal(counts, expected)


class TestEngineErrors:
    def test_run_without_workload(self, tiny_topology, streams):
        engine, _, _ = make_engine(tiny_topology, streams.spawn("e14"))
        with pytest.raises(SimulationError):
            engine.run()

    def test_single_use(self, tiny_topology, streams):
        engine, _, _ = make_engine(tiny_topology, streams.spawn("e15"))
        engine.load_snapshot()
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()

    def test_load_after_start(self, tiny_topology, streams):
        engine, _, _ = make_engine(tiny_topology, streams.spawn("e16"))
        engine.load_snapshot()
        engine.run()
        with pytest.raises(SimulationError):
            engine.load_snapshot()

    def test_bad_packet_source(self, tiny_topology, streams):
        engine, _, _ = make_engine(tiny_topology, streams.spawn("e17"))
        with pytest.raises(ConfigurationError):
            engine.load_packets([Packet(packet_id=0, source=0)])

    def test_bad_contention_window(self, tiny_topology, streams):
        with pytest.raises(ConfigurationError):
            engine, sense_map, _ = make_engine(tiny_topology, streams.spawn("e18"))
            SlottedEngine(
                topology=tiny_topology,
                sense_map=sense_map,
                policy=engine.policy,
                streams=streams.spawn("e18b"),
                contention_window_ms=0.9,
                slot_duration_ms=1.0,
            )

    def test_queue_introspection(self, tiny_topology, streams):
        engine, _, _ = make_engine(tiny_topology, streams.spawn("e19"))
        engine.load_snapshot()
        assert engine.total_queued() == tiny_topology.secondary.num_sus
        assert engine.queue_length(1) == 1
        assert engine.queue_length(0) == 0


class TestPaperCorePath:
    """A paper-core run (one channel, perfect sensing, 1-slot packets, no
    faults, arrivals or hook) does no work only an extension needs."""

    #: Engine methods the core slot path must never call.
    EXTENSION_ONLY = (
        "_process_faults",
        "_inject_arrivals",
        "_handoff_check",
        "_pick_channel",
    )
    #: Spectrum-process methods it must never call either.
    SPECTRUM_EXTENSION_ONLY = ("busy_channels", "busy_counts")

    @pytest.fixture(scope="class")
    def golden_topology(self):
        config = ExperimentConfig(
            area=40.0 * 40.0, num_pus=10, num_sus=50, repetitions=1
        )
        return deploy_crn(
            config.deployment_spec(), StreamFactory(20120612).spawn("g")
        )

    @pytest.fixture
    def fired(self, monkeypatch):
        """Stub every extension-only method to raise; returns the names
        of the stubs that fired."""
        fired = []

        def stub(name):
            def boom(*args, **kwargs):
                fired.append(name)
                raise AssertionError(f"{name} ran on the paper-core path")

            return boom

        original_run = SlottedEngine.run

        def stubbed_run(engine):
            for name in self.EXTENSION_ONLY:
                setattr(engine, name, stub(name))
            for name in self.SPECTRUM_EXTENSION_ONLY:
                setattr(engine.spectrum, name, stub(name))
            return original_run(engine)

        monkeypatch.setattr(SlottedEngine, "run", stubbed_run)
        monkeypatch.setattr(blocking_module, "_sensed_busy", stub("_sensed_busy"))
        return fired

    @pytest.mark.parametrize(
        "collect, label, blocking, delay, rng",
        [
            (
                run_addc_collection,
                "addc",
                "geometric",
                2443,
                ("fb3172fe0093bb83", "523fa29ac175f0b0", "b1ef2e0fe80ac39d"),
            ),
            (
                run_addc_collection,
                "addc-h",
                "homogeneous",
                1131,
                ("1b0bd2ca5c8576de", "beac4f315b5834cd", "5bcf126d88213de2"),
            ),
            (
                run_coolest_collection,
                "coolest",
                "geometric",
                7363,
                ("d2461589a66f1a6f", "02cff7fe4c1ca6b1", "8f104b00920690fc"),
            ),
            (
                run_coolest_collection,
                "coolest-h",
                "homogeneous",
                4136,
                ("0862e8be1abc4653", "e34913231831a2fc", "c2bfffb9ff244c0e"),
            ),
        ],
    )
    def test_golden_runs_take_the_core_path(
        self, golden_topology, fired, collect, label, blocking, delay, rng
    ):
        kwargs = {"with_bounds": False} if collect is run_addc_collection else {}
        outcome = collect(
            golden_topology,
            StreamFactory(20120612).spawn("g").spawn(label),
            blocking=blocking,
            **kwargs,
        )
        assert fired == []
        assert outcome.result.completed
        assert outcome.result.delay_slots == delay
        assert tuple(outcome.engine.rng_positions().values()) == rng

    def test_the_stubs_fire_off_the_core_path(self, golden_topology, fired):
        with pytest.raises(AssertionError, match="_handoff_check"):
            run_addc_collection(
                golden_topology,
                StreamFactory(20120612).spawn("g").spawn("long"),
                packet_slots=2,
                with_bounds=False,
            )
        assert fired == ["_handoff_check"]
