"""Property-based engine tests over random small deployments.

Hypothesis drives deployment seeds and scenario knobs (blocking model,
activity model, sensing errors); for every drawn scenario the run must
satisfy the conservation and termination invariants regardless of
geometry.  Conservation is checked at the end of the run and again at the
end of every slot of a second, hooked run, together with two contention
invariants: an inactive node carries no fairness wait, and the engine's
incrementally kept eligible set equals its full recomputation.  A third
property adds crashes, outages with rejoins, base-station blackouts and
multi-slot packets.  The hook forces the plain slot loop, so that run must
also end in the same result and the same RNG stream positions as the
fast-forwarded one.  The capture rule and multi-channel SIR of
adjudication are checked against a scalar reference, bit for bit against
the engine's gain definition written out pair by pair, and against
``SirValidator``, a numpy SIR model that shares no code with the engine.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import repro.core.collector as collector
import repro.routing.coolest as coolest
from repro.core.addc import AddcPolicy
from repro.core.collector import run_addc_collection
from repro.errors import DisconnectedNetworkError
from repro.experiments.config import ExperimentConfig
from repro.graphs.tree import build_collection_tree
from repro.faults.plan import FaultEvent, FaultPlan
from repro.network.deployment import deploy_crn
from repro.network.primary import MarkovActivity
from repro.routing.coolest import run_coolest_collection
from repro.rng import StreamFactory
from repro.sim.engine import SlottedEngine
from repro.spectrum.blocking import _frozen_prefix
from repro.sim.packet import DATA
from repro.spectrum.sensing import CarrierSenseMap
from repro.spectrum.sir import SirValidator


def deploy(seed: int, num_sus: int, num_pus: int, p_t: float, markov: bool):
    config = ExperimentConfig(
        area=35.0 * 35.0,
        num_pus=num_pus,
        num_sus=num_sus,
        p_t=p_t,
        repetitions=1,
        max_slots=150_000,
    )
    factory = StreamFactory(seed).spawn("prop")
    # The Markov chain needs 0 < p_t < 1; p_t = 0 stays Bernoulli.
    activity = MarkovActivity(p_t, burstiness=4.0) if markov and p_t > 0 else None
    try:
        return deploy_crn(config.deployment_spec(), factory, activity), factory
    except DisconnectedNetworkError:
        return None, None


class ConservationOracle:
    """``slot_hook`` asserting data-packet conservation after every slot.

    Every data packet the run was given is, at each slot boundary,
    delivered, lost, queued at a node, a future arrival, an arrival
    deferred for a down node, or held by the policy (Coolest holds a
    source's data until its route reply lands).  It also asserts that no
    inactive node (drained, down or dead) carries a fairness wait: the
    slot end zeroes every wait at once on that invariant.  Last, the
    engine's incrementally kept set of nodes that may contend must equal
    its definition recomputed over every node: active and past its
    hold-off.
    """

    def __init__(self) -> None:
        self.slots = 0

    def __call__(self, engine) -> None:
        result = engine._result
        queued = sum(
            packet.kind == DATA for queue in engine._queues for packet in queue
        )
        pending = sum(
            packet.kind == DATA for _, _, packet in engine._pending_arrivals
        )
        deferred = sum(
            packet.kind == DATA
            for packets in engine._deferred_arrivals.values()
            for packet in packets
        )
        held = len(getattr(engine.policy, "_pending_data", ()))
        accounted = (
            result.delivered
            + result.packets_lost
            + queued
            + pending
            + deferred
            + held
        )
        assert accounted == result.num_packets, (
            f"slot {engine.slot}: {result.delivered} delivered + "
            f"{result.packets_lost} lost + {queued} queued + {pending} "
            f"pending + {deferred} deferred + {held} held != "
            f"{result.num_packets} packets"
        )
        active = np.zeros(engine._num_nodes, dtype=bool)
        active[list(engine._active)] = True
        stale = np.nonzero(engine.fairness_waits()[~active])[0]
        assert stale.size == 0, (
            f"slot {engine.slot}: inactive nodes "
            f"{np.nonzero(~active)[0][stale].tolist()} "
            "carry a fairness wait"
        )
        eligible = active & (np.asarray(engine._hold_until_slot) <= engine.slot)
        drift = np.nonzero(engine._eligible_mask != eligible)[0]
        assert drift.size == 0, (
            f"slot {engine.slot}: the eligible set disagrees with "
            f"active & past hold-off at nodes {drift.tolist()}"
        )
        self.slots += 1

    def hooked(self, module):
        """Patch ``module``'s engine so every run it starts calls this hook.

        A slot hook turns fast-forward off, so the hooked run also checks
        that the ordinary slot loop ends where the fast-forwarded one did.
        """
        engine = functools.partial(SlottedEngine, slot_hook=self)
        return mock.patch.object(module, "SlottedEngine", engine)


@st.composite
def scenario(draw):
    """Deployment knobs, blocking model, activity model and sensing errors.

    Imperfect sensing (p_fa = 0.05, p_md = 0.1) is drawn under geometric
    blocking only: homogeneous blocking rejects missed detections.  It
    applies to ADDC; ``run_coolest_collection`` has no sensing knobs.
    """
    deployment = (
        draw(st.integers(0, 2**31 - 1)),
        draw(st.integers(30, 60)),
        draw(st.integers(0, 10)),
        draw(st.sampled_from([0.0, 0.1, 0.3])),
        draw(st.booleans()),  # Markov rather than Bernoulli activity
    )
    blocking = draw(st.sampled_from(["geometric", "homogeneous"]))
    knobs = dict(blocking=blocking)
    if blocking == "geometric" and draw(st.booleans()):
        knobs.update(p_false_alarm=0.05, p_missed_detection=0.1)
    return deployment, knobs


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario())
def test_addc_conservation_invariants(params):
    deployment, knobs = params
    topology, factory = deploy(*deployment)
    if topology is None:
        return  # too sparse to connect: not this test's concern
    outcome = run_addc_collection(
        topology,
        factory.spawn("addc"),
        with_bounds=False,
        max_slots=150_000,
        **knobs,
    )
    result = outcome.result
    assert result.completed
    oracle = ConservationOracle()
    with oracle.hooked(collector):
        hooked = run_addc_collection(
            topology,
            factory.spawn("addc"),
            with_bounds=False,
            max_slots=150_000,
            **knobs,
        )
    assert hooked.result == result
    assert hooked.engine.rng_positions() == outcome.engine.rng_positions()
    assert oracle.slots == result.slots_simulated
    # Conservation: every source delivers exactly its own packet.
    assert sorted(r.source for r in result.deliveries) == list(
        topology.secondary.su_ids()
    )
    assert len({r.packet_id for r in result.deliveries}) == result.delivered
    # Successes account for all hops; attempts cover successes + losses.
    total_hops = sum(r.hops for r in result.deliveries)
    assert sum(result.tx_successes.values()) == total_hops
    assert result.total_transmissions == total_hops + result.collisions
    # Timing sanity.
    for record in result.deliveries:
        assert 0 <= record.birth_slot <= record.delivered_slot
        assert record.hops >= 1


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario())
def test_coolest_conservation_invariants(params):
    deployment, knobs = params
    topology, factory = deploy(*deployment)
    if topology is None:
        return
    blocking = knobs["blocking"]
    outcome = run_coolest_collection(
        topology, factory.spawn("coolest"), blocking=blocking, max_slots=150_000
    )
    result = outcome.result
    assert result.completed
    oracle = ConservationOracle()
    with oracle.hooked(coolest):
        hooked = run_coolest_collection(
            topology, factory.spawn("coolest"), blocking=blocking, max_slots=150_000
        )
    assert hooked.result == result
    assert hooked.engine.rng_positions() == outcome.engine.rng_positions()
    assert oracle.slots == result.slots_simulated
    assert sorted(r.source for r in result.deliveries) == list(
        topology.secondary.su_ids()
    )
    # Control traffic inflates attempts beyond delivered data hops.
    data_hops = sum(r.hops for r in result.deliveries)
    assert sum(result.tx_successes.values()) >= data_hops


@st.composite
def adversity(draw):
    """Packet length plus up to three crash, outage or blackout events.

    Nodes are drawn as raw integers and mapped onto the deployment's SUs
    by the test.  Outages recover 5-60 slots later, so rejoins happen
    mid-run; blackouts make deliveries to the sink hold off and retry.
    """
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["crash", "outage", "bs-blackout"]),
                st.integers(0, 80),  # onset slot
                st.integers(0, 10**6),  # node, modulo the SU count
                st.integers(5, 60),  # outage or blackout length
            ),
            max_size=3,
        )
    )
    return draw(st.sampled_from([1, 2, 3])), events


def fault_plan_for(topology, events):
    su_ids = list(topology.secondary.su_ids())
    plan = []
    for kind, slot, raw_node, length in events:
        node = su_ids[raw_node % len(su_ids)]
        if kind == "crash":
            plan.append(FaultEvent.crash(slot, node))
        elif kind == "outage":
            plan.append(FaultEvent.outage(slot, node, slot + length))
        else:
            plan.append(FaultEvent.bs_blackout(slot, slot + length))
    return FaultPlan.from_events(plan)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario(), adversity())
# An outage strands two nodes and its node then crashes while down: no
# attachment point can come back, so the stranded nodes must retire
# rather than wait out max_slots.
@example(
    params=((1422, 45, 0, 0.0, False), {"blocking": "geometric"}),
    hazards=(
        3,
        [("crash", 36, 0, 5), ("crash", 43, 14931, 5), ("outage", 34, 96966, 18)],
    ),
)
# Geometric blocking at p_t = 0.3 with 3-slot packets and no fault
# delivers 17 of 30 packets by max_slots, so the clamp below draws 1-slot
# packets there (test_long_packets_starve_under_geometric_blocking_at_high_p_t
# pins the starvation).
@example(
    params=((0, 30, 8, 0.3, False), {"blocking": "geometric"}),
    hazards=(3, []),
)
def test_addc_invariants_under_faults_and_long_packets(params, hazards):
    """Crashes, outages with rejoins, blackout hold-offs and multi-slot
    packets: every slot still conserves data and keeps the eligible set
    equal to its definition, and the hooked plain loop ends where the
    fast-forwarded run did."""
    deployment, knobs = params
    packet_slots, events = hazards
    if knobs["blocking"] == "homogeneous" or deployment[3] >= 0.3:
        # A k-slot packet needs its sender's spectrum free k slots running,
        # and a PU turning on mid-packet forces a handoff that restarts it.
        # Mean-field blocking at p_t = 0.3 rarely frees a node for three
        # slots running; under geometric blocking, p_t = 0.3 frees a relay
        # that hears m PUs for k slots running with probability
        # 0.7 ** (m * k), so long packets starve past max_slots there too
        # (the model, not an engine fault).
        packet_slots = 1
    topology, factory = deploy(*deployment)
    if topology is None:
        return
    knobs = dict(
        knobs,
        packet_slots=packet_slots,
        fault_plan=fault_plan_for(topology, events),
        with_bounds=False,
        max_slots=150_000,
    )
    outcome = run_addc_collection(topology, factory.spawn("addc"), **knobs)
    result = outcome.result
    assert result.completed
    oracle = ConservationOracle()
    with oracle.hooked(collector):
        hooked = run_addc_collection(topology, factory.spawn("addc"), **knobs)
    assert hooked.result == result
    assert hooked.engine.rng_positions() == outcome.engine.rng_positions()
    assert oracle.slots == result.slots_simulated


def test_long_packets_starve_under_geometric_blocking_at_high_p_t():
    """The deployment the long-packet property's clamp exists for: with
    no fault at all, 2-slot packets take over ten times the slots of
    1-slot ones, and PUs turning on mid-packet force handoffs."""
    topology, factory = deploy(0, 30, 8, 0.3, False)
    results = [
        run_addc_collection(
            topology,
            factory.spawn("addc"),
            blocking="geometric",
            packet_slots=packet_slots,
            with_bounds=False,
            max_slots=150_000,
        ).result
        for packet_slots in (1, 2)
    ]
    short, long = results
    assert short.completed and long.completed
    assert long.slots_simulated > 10 * short.slots_simulated
    assert short.handoffs == 0
    assert long.handoffs > 0


def test_a_crashed_node_keeps_no_fairness_wait():
    """Crash a node the slot after it transmitted and kept a backlog.

    Its fairness wait is nonzero when it dies; retiring it must zero the
    wait, or the inactive-node invariant breaks from that slot on.
    """
    topology, factory = deploy(11, 40, 4, 0.1, False)
    holders = []

    def first_wait(engine):
        waiting = np.nonzero(engine.fairness_waits())[0]
        if waiting.size and not holders:
            holders.append((engine.slot, int(waiting[0])))

    with mock.patch.object(
        collector,
        "SlottedEngine",
        functools.partial(SlottedEngine, slot_hook=first_wait),
    ):
        run_addc_collection(topology, factory.spawn("addc"), with_bounds=False)
    slot, victim = holders[0]
    plan = FaultPlan.from_events([FaultEvent.crash(slot + 1, victim)])
    oracle = ConservationOracle()
    with oracle.hooked(collector):
        outcome = run_addc_collection(
            topology, factory.spawn("addc"), with_bounds=False, fault_plan=plan
        )
    result = outcome.result
    assert result.completed
    assert result.nodes_departed == 1
    assert oracle.slots == result.slots_simulated


@st.composite
def busy_chunks(draw):
    """A fast-forward chunk's sensing outcomes: slots x waiters, True for
    busy, with frozen rows (all True) drawn often enough to form runs."""
    count = draw(st.integers(1, 40))
    width = draw(st.integers(0, 6))
    busy = draw(arrays(bool, (count, width)))
    frozen_rows = draw(arrays(bool, count))
    busy[frozen_rows] = True
    return busy


@settings(max_examples=200, deadline=None)
@given(busy_chunks())
@example(np.ones((5, 3), dtype=bool))  # the whole chunk is frozen
@example(np.zeros((4, 0), dtype=bool))  # no waiters: every slot is frozen
@example(np.array([[True, True], [True, False], [False, False]]))
def test_frozen_prefix_matches_the_row_reduction(busy):
    """One flat argmin finds the frozen run the per-row reduction does."""
    frozen = busy.all(axis=1)
    expected = busy.shape[0] if frozen.all() else int(frozen.argmin())
    assert _frozen_prefix(busy) == expected


@functools.lru_cache(maxsize=1)
def capture_engine():
    """An engine whose positions and channels the capture test redraws."""
    topology, factory = deploy(3, 12, 6, 0.3, False)
    sense_map = CarrierSenseMap(topology, 20.0)
    tree = build_collection_tree(
        topology.secondary.graph, topology.secondary.base_station
    )
    policy = AddcPolicy(tree)
    return SlottedEngine(topology, sense_map, policy, factory.spawn("capture"))


def ieee_gain(power, alpha, dx, dy):
    """The engine's one definition of an SU gain, over one pair's offset:
    plain-Python IEEE arithmetic on the squared distance, clamped at
    ``1e-6 ** 2``."""
    squared = dx * dx + dy * dy
    if squared < 1e-12:
        squared = 1e-12
    return power * squared ** (-0.5 * alpha)


def reference_outcomes(engine, links, channels, active_pus, pu_channels, sir_check):
    """Scalar rule: the first strongest link per receiver wins capture,
    then it must meet ``eta_s`` over every other transmitter and PU on
    its channel (no interferer at all is an infinite SIR)."""
    positions = engine._positions
    # The engine's own gain definition, so exact ties stay exact.
    signal = [
        ieee_gain(
            engine._su_power,
            engine.alpha,
            *(positions[receiver] - positions[sender]).tolist(),
        )
        for sender, receiver in links
    ]

    def power_at(source, power, receiver):
        dx, dy = source - positions[receiver]
        return power * max(float(np.hypot(dx, dy)), 1e-6) ** (-engine.alpha)

    outcomes = []
    for index, (_, receiver) in enumerate(links):
        rivals = [j for j, (_, other) in enumerate(links) if other == receiver]
        strongest = max(signal[j] for j in rivals)
        captured = index == min(j for j in rivals if signal[j] == strongest)
        if not sir_check:
            outcomes.append(captured)
            continue
        channel = channels[index]
        interference = sum(
            power_at(positions[sender], engine._su_power, receiver)
            for j, (sender, _) in enumerate(links)
            if j != index and channels[j] == channel
        ) + sum(
            power_at(engine.spectrum._pu_positions[pu], engine.spectrum._pu_power, receiver)
            for pu in active_pus
            if pu_channels[pu] == channel
        )
        sir = signal[index] / interference if interference > 0 else float("inf")
        outcomes.append(captured and sir >= engine.eta_s)
    return outcomes


#: Node ids the capture test places: receivers 0-2, senders 3 and up.
CAPTURE_NODES = 24


@st.composite
def concurrent_set(draw):
    """Links into three shared receivers from transmitters on a small
    integer grid, where mirrored offsets give exactly equal signals, on
    one to three channels (every link and PU on a drawn channel).  Up to
    20 senders, so interference sums of 8 terms and more are drawn."""
    engine = capture_engine()
    senders = draw(
        st.lists(
            st.integers(3, CAPTURE_NODES - 1), min_size=1, max_size=20,
            unique=True,
        )
    )
    receivers = [draw(st.integers(0, 2)) for _ in senders]
    coordinate = st.integers(-3, 3)
    points = {
        node: (draw(coordinate), draw(coordinate))
        for node in [0, 1, 2, *senders]
    }
    completing = [draw(st.booleans()) for _ in senders]
    num_pus = engine.spectrum._pu_positions.shape[0]
    active_pus = draw(st.lists(st.integers(0, num_pus - 1), max_size=3, unique=True))
    num_channels = draw(st.integers(1, 3))
    channel = st.integers(0, num_channels - 1)
    channels = [draw(channel) for _ in senders]
    pu_channels = [draw(channel) for _ in range(num_pus)]
    return (
        list(zip(senders, receivers)),
        points,
        completing,
        sorted(active_pus),
        num_channels,
        channels,
        pu_channels,
    )


@settings(max_examples=300, deadline=None)
@given(concurrent_set(), st.booleans())
def test_capture_rule_matches_the_scalar_reference(drawn, sir_check):
    (
        links, points, completing_flags, active_pus,
        num_channels, channels, pu_channels,
    ) = drawn
    engine = capture_engine()
    positions = np.zeros((CAPTURE_NODES, 2))
    for node, point in points.items():
        positions[node] = point
    # Every SIR clears an eta_s of 0, which leaves the capture rule alone.
    with mock.patch.multiple(
        engine,
        _positions=positions,
        _num_channels=num_channels,
        eta_s=engine.eta_s if sir_check else 0.0,
    ), mock.patch.multiple(
        engine.spectrum,
        active_pus=np.array(active_pus, dtype=np.int64),
        _pu_channels=(
            np.array(pu_channels, dtype=np.int64) if num_channels > 1 else None
        ),
    ):
        concurrent = [
            (0.1, sender, receiver, channel)
            for (sender, receiver), channel in zip(links, channels)
        ]
        expected = reference_outcomes(
            engine, links, channels, active_pus, pu_channels, sir_check
        )
        assert engine._adjudicate(concurrent, concurrent) == expected
        completing = [
            link for link, done in zip(concurrent, completing_flags) if done
        ]
        assert engine._adjudicate(completing, concurrent) == [
            outcome
            for outcome, done in zip(expected, completing_flags)
            if done
        ]


def matrix_adjudication(engine, concurrent):
    """The engine's gain definition written out pair by pair, as the
    bit-level reference: ``(signal, interference, sir, captured)`` per
    concurrent link.  Every SU power is ``ieee_gain`` of its own pair;
    each receiver adds its other same-channel transmitters' powers one at
    a time in index order; the active-PU block is the numpy formula
    verbatim; capture is decided over the whole matrix of signals."""
    count = len(concurrent)
    tx_nodes = [node for _, node, _, _ in concurrent]
    rx_nodes = [receiver for _, _, receiver, _ in concurrent]
    channels = [channel for _, _, _, channel in concurrent]
    points = engine._positions.tolist()

    def su_power_at(receiver, sender):
        (x, y), (tx, ty) = points[receiver], points[sender]
        return ieee_gain(engine._su_power, engine.alpha, x - tx, y - ty)

    signal = np.array(
        [su_power_at(receiver, sender) for sender, receiver in zip(tx_nodes, rx_nodes)]
    )
    if engine._link_loss:
        for index in range(count):
            factor = engine._link_loss.get((tx_nodes[index], rx_nodes[index]))
            if factor is not None:
                signal[index] *= factor

    if len(set(rx_nodes)) == count:
        ok = np.ones(count, dtype=bool)
    else:
        receivers = np.asarray(rx_nodes)
        shared = receivers[:, None] == receivers[None, :]
        other = signal[None, :]
        own = signal[:, None]
        earlier = np.tri(count, k=-1, dtype=bool)
        beaten = shared & ((other > own) | ((other == own) & earlier))
        ok = ~beaten.any(axis=1)

    sums = []
    for index, receiver in enumerate(rx_nodes):
        total = 0.0
        for other, sender in enumerate(tx_nodes):
            if other != index and channels[other] == channels[index]:
                total += su_power_at(receiver, sender)
        sums.append(total)
    interference = np.array(sums)

    spectrum = engine.spectrum
    active = spectrum.active_pus
    if active.size:
        rx_pos = engine._positions[rx_nodes]
        pu_pos = spectrum._pu_positions[active]
        pu_deltas = rx_pos[:, None, :] - pu_pos[None, :, :]
        pu_dist = np.maximum(np.hypot(pu_deltas[..., 0], pu_deltas[..., 1]), 1e-6)
        pu_terms = spectrum._pu_power * pu_dist ** (-engine.alpha)
        if engine._num_channels > 1:
            pu_channels = spectrum._pu_channels[active]
            same_channel_pu = np.asarray(channels)[:, None] == pu_channels[None, :]
            pu_terms = pu_terms * same_channel_pu
        interference = interference + pu_terms.sum(axis=1)

    sir = np.divide(
        signal, interference, out=np.full(count, np.inf), where=interference > 0.0
    )
    return signal.tolist(), interference.tolist(), sir.tolist(), ok.tolist()


def link_budget(engine, concurrent):
    """The engine's ``(signal, interference)`` for ``concurrent`` links."""
    _, tx_nodes, rx_nodes, channels = zip(*concurrent)
    return engine._link_budget(tx_nodes, rx_nodes, channels)


def float_bits(values):
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("count", range(1, 41))
def test_link_budget_matches_the_matrix_formula_bit_for_bit(count):
    """Signal, interference and SIR of every link equal the pair-by-pair
    reference's floats bit for bit, on one to three channels, with and
    without link-loss faults and active PUs, with one sender on its
    receiver (the distance clamp); so do ``_adjudicate``'s outcomes, at
    an ``eta_s`` of 0 and at one set exactly to one link's SIR so the
    ``>=`` edge is hit."""
    engine = capture_engine()
    rng = np.random.default_rng(count)
    receivers = max(1, count // 3)
    num_pus = 8
    for num_channels in (1, 2, 3):
        for with_pus in (False, True):
            for with_loss in (False, True):
                positions = rng.uniform(0.0, 35.0, (count + receivers, 2))
                # Sender 0 sits on receiver `count`: that pair hits the clamp.
                positions[count] = positions[0]
                rx_nodes = rng.integers(count, count + receivers, count).tolist()
                channels = rng.integers(0, num_channels, count).tolist()
                concurrent = [
                    (0.1, sender, receiver, channel)
                    for sender, (receiver, channel) in enumerate(
                        zip(rx_nodes, channels)
                    )
                ]
                active = (
                    np.flatnonzero(rng.random(num_pus) < 0.5)
                    if with_pus
                    else np.array([], dtype=np.int64)
                )
                link_loss = {
                    (sender, receiver): 10.0 ** (-rng.uniform(1.0, 20.0) / 10.0)
                    for sender, receiver in enumerate(rx_nodes)
                    if with_loss and rng.random() < 0.5
                }
                pu_channels = rng.integers(0, num_channels, num_pus)
                with mock.patch.multiple(
                    engine,
                    _positions=positions,
                    _num_channels=num_channels,
                    _link_loss=link_loss,
                ), mock.patch.multiple(
                    engine.spectrum,
                    _pu_positions=rng.uniform(0.0, 35.0, (num_pus, 2)),
                    active_pus=active,
                    _pu_channels=pu_channels if num_channels > 1 else None,
                ):
                    signal, interference, sir, captured = matrix_adjudication(
                        engine, concurrent
                    )
                    got_signal, got_interference = link_budget(engine, concurrent)
                    assert float_bits(got_signal) == float_bits(signal)
                    assert float_bits(got_interference) == float_bits(interference)
                    got_sir = [
                        power / noise if noise > 0.0 else float("inf")
                        for power, noise in zip(got_signal, got_interference)
                    ]
                    assert float_bits(got_sir) == float_bits(sir)
                    finite = [value for value in sir if value != float("inf")]
                    eta_s = finite[len(finite) // 2] if finite else engine.eta_s
                    # An eta_s of 0 checks the capture rule on its own.
                    for threshold in (0.0, eta_s):
                        with mock.patch.object(engine, "eta_s", threshold):
                            expected = [
                                ok and value >= threshold
                                for ok, value in zip(captured, sir)
                            ]
                            assert engine._adjudicate(concurrent, concurrent) == expected


def sequential_sum(row):
    total = -0.0
    for term in row:
        total += term
    return total


def pairwise_sum(row):
    """numpy's pairwise summation of a contiguous float64 run: eight
    partial sums over blocks of up to 128 terms, halves beyond that."""
    count = len(row)
    if count < 8:
        return sequential_sum(row)
    if count > 128:
        half = count // 2
        half -= half % 8
        return pairwise_sum(row[:half]) + pairwise_sum(row[half:])
    partial = list(row[:8])
    index = 8
    while index < count - count % 8:
        for lane in range(8):
            partial[lane] += row[index + lane]
        index += 8
    total = ((partial[0] + partial[1]) + (partial[2] + partial[3])) + (
        (partial[4] + partial[5]) + (partial[6] + partial[7])
    )
    for term in row[index:]:
        total += term
    return total


def test_numpy_row_sums_are_sequential_below_8_terms_and_pairwise_from_8():
    """The summation order of the engine's active-PU interference block,
    which still sums in numpy: a C-contiguous row's ``sum(axis=1)`` adds
    one term at a time below 8 terms and pairwise from 8 up.  A numpy
    release that changes either order fails here before it silently
    moves a simulated outcome."""
    rng = np.random.default_rng(2012)
    for count in range(1, 41):
        orders_differ = False
        for _ in range(40):
            block = rng.random((count, count)) * 10.0 ** rng.integers(
                -8, 9, (count, count)
            )
            rows = block.tolist()
            sums = block.sum(axis=1).tolist()
            if count < 8:
                assert sums == [sequential_sum(row) for row in rows]
            else:
                assert sums == [pairwise_sum(row) for row in rows]
                orders_differ |= sums != [sequential_sum(row) for row in rows]
        assert count < 8 or orders_differ
    # Eight terms: each tiny term alone rounds away against 1.0, pairs do not.
    terms = [1.0] + [2.0 ** -53] * 7
    assert np.array([terms]).sum(axis=1).tolist() == [1.0 + 3 * 2.0 ** -52]
    assert sequential_sum(terms) == 1.0


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 5.0, 6.0])
def test_gain_estimate_premise(alpha):
    """The engine's gain definition (``ieee_gain``) is within 1e-13
    relative of numpy's ``power * max(hypot, 1e-6) ** -alpha``, the
    formula of ``repro.spectrum.sir``, over 10**5 seeded pairs, a tenth
    of them across the 1e-6 distance clamp.  The engine and a numpy SIR
    model therefore decide alike any link whose SIR clears ``eta_s`` by
    more than 1e-9 relative (``test_adjudication_agrees_with_the_sir_validator``)."""
    rng = np.random.default_rng(2012)
    pairs = 100_000
    receivers = rng.uniform(0.0, 250.0, (pairs, 2))
    offsets = rng.uniform(-250.0, 250.0, (pairs, 2))
    close = pairs // 10
    offsets[:close] = rng.uniform(-1.0, 1.0, (close, 2)) * 10.0 ** rng.uniform(
        -9.0, -5.0, (close, 1)
    )
    offsets[:10] = 0.0
    deltas = receivers - (receivers + offsets)
    distance = np.hypot(deltas[:, 0], deltas[:, 1])
    assert (distance < 1e-6).sum() > 1000
    for power in (1.0, 10.0):
        exact = power * np.maximum(distance, 1e-6) ** (-alpha)
        defined = np.array(
            [ieee_gain(power, alpha, dx, dy) for dx, dy in deltas.tolist()]
        )
        assert np.abs(defined / exact - 1.0).max() <= 1e-13


def sir_at_eta_s(engine):
    """Two links into two receivers, ``eta_s`` exactly link 0's SIR as
    the engine computes it: the ``>=`` edge."""
    positions = np.zeros((CAPTURE_NODES, 2))
    positions[[0, 1, 3, 4]] = [(5.0, 5.0), (20.0, 9.0), (8.0, 6.5), (17.5, 11.0)]
    concurrent = [(0.1, 3, 0, 0), (0.2, 4, 1, 0)]
    with mock.patch.object(engine, "_positions", positions):
        signal, interference = link_budget(engine, concurrent)
    return positions, concurrent, signal[0] / interference[0]


def equidistant_senders(engine):
    """Two senders mirrored about their shared receiver: equal signals."""
    positions = np.zeros((CAPTURE_NODES, 2))
    positions[[0, 3, 4]] = [(10.0, 10.0), (7.0, 10.0), (13.0, 10.0)]
    # Each link's SIR is exactly 1: an eta_s below it leaves capture,
    # whose tie goes to the first link, to decide.
    return positions, [(0.1, 3, 0, 0), (0.2, 4, 0, 0)], 0.5


@pytest.mark.parametrize("case", [sir_at_eta_s, equidistant_senders])
def test_close_decisions_follow_the_reference(case):
    """Decisions at the edge of the rule: an SIR exactly at ``eta_s``
    succeeds and fails one ulp of ``eta_s`` higher, and of two equal
    signals into one receiver the first link is captured."""
    engine = capture_engine()
    positions, concurrent, eta_s = case(engine)
    with mock.patch.multiple(engine, _positions=positions, eta_s=eta_s):
        _, _, sir, captured = matrix_adjudication(engine, concurrent)
        expected = [ok and value >= eta_s for ok, value in zip(captured, sir)]
        assert engine._adjudicate(concurrent, concurrent) == expected
    if case is equidistant_senders:
        assert expected == [True, False]
    if case is sir_at_eta_s:
        assert sir[0] == eta_s and expected[0] is True
        above = float(np.nextafter(eta_s, np.inf))
        with mock.patch.multiple(engine, _positions=positions, eta_s=above):
            assert engine._adjudicate(concurrent, concurrent)[0] is False


def test_adjudication_agrees_with_the_sir_validator():
    """An oracle that shares no code with the engine: the paper's SIR
    model as ``SirValidator`` writes it in numpy.  Over 3,000 seeded
    single-channel slots of 2 to 12 links into distinct receivers, half
    of them with active PUs, every link whose validator SIR is more than
    1e-9 relative away from ``eta_s`` gets the validator's outcome, and
    almost every link is decided that way."""
    engine = capture_engine()
    validator = SirValidator(
        engine.alpha,
        eta_p=1.0,
        eta_s=engine.eta_s,
        pu_power=engine.spectrum._pu_power,
        su_power=engine._su_power,
    )
    rng = np.random.default_rng(36)
    pu_positions = rng.uniform(0.0, 35.0, (8, 2))
    links = decided = successes = 0
    for slot in range(3000):
        count = int(rng.integers(2, 13))
        senders = rng.uniform(0.0, 35.0, (count, 2))
        # Sender i transmits to receiver count + i, a few units away.
        positions = np.vstack([senders, senders + rng.uniform(-6.0, 6.0, (count, 2))])
        concurrent = [(0.1, sender, count + sender, 0) for sender in range(count)]
        active = (
            np.flatnonzero(rng.random(8) < 0.3)
            if slot % 2
            else np.array([], dtype=np.int64)
        )
        pu_links = [(pu_positions[pu], pu_positions[pu] + 1.0) for pu in active]
        su_links = [(positions[sender], positions[count + sender]) for sender in range(count)]
        with mock.patch.object(engine, "_positions", positions), mock.patch.multiple(
            engine.spectrum, _pu_positions=pu_positions, active_pus=active
        ):
            outcomes = engine._adjudicate(concurrent, concurrent)
        report = validator.validate(pu_links, su_links)
        for outcome, sir in zip(outcomes, report.su_sirs):
            links += 1
            if abs(sir - engine.eta_s) > 1e-9 * engine.eta_s:
                decided += 1
                successes += outcome
                assert outcome == (sir >= engine.eta_s)
    assert decided >= 0.999 * links
    assert 0.1 * decided < successes < 0.9 * decided
