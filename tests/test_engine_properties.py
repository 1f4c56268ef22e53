"""Property-based engine tests over random small deployments.

Hypothesis drives deployment seeds and scenario knobs (blocking model,
activity model, sensing errors); for every drawn scenario the run must
satisfy the conservation and termination invariants regardless of
geometry.  Conservation is checked at the end of the run and again at the
end of every slot of a second, hooked run.  The hook forces the plain slot
loop, so that run must also end in the same result and the same RNG stream
positions as the fast-forwarded one.
"""

from __future__ import annotations

import functools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.collector as collector
import repro.routing.coolest as coolest
from repro.core.collector import run_addc_collection
from repro.errors import DisconnectedNetworkError
from repro.experiments.config import ExperimentConfig
from repro.network.deployment import deploy_crn
from repro.network.primary import MarkovActivity
from repro.routing.coolest import run_coolest_collection
from repro.rng import StreamFactory
from repro.sim.engine import SlottedEngine
from repro.sim.packet import DATA


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
    source's data until its route reply lands).
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
