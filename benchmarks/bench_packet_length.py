"""Extension bench — packet length, spectrum handoff, and PU burstiness.

The paper assumes packet time < tau (one slot), so a PU can never return
mid-transmission; Section I's handoff rule is then free.  This bench makes
packet length a parameter and measures its real cost:

* under i.i.d. PU activity, an L-slot packet needs L consecutive free
  slots — success decays like p_o^L and handoffs snowball;
* under bursty (Markov) traffic with the *same* stationary activity, free
  windows persist, so longer packets survive far better.

The paper's sub-slot-packet assumption is thus load-bearing exactly when
PU activity is memoryless.
"""

from __future__ import annotations

from repro.core.addc import AddcPolicy
from repro.core.pcr import PcrParameters, compute_pcr, db_to_linear
from repro.graphs.tree import build_collection_tree
from repro.network.deployment import deploy_crn
from repro.network.primary import MarkovActivity
from repro.rng import StreamFactory
from repro.sim.engine import SlottedEngine
from repro.spectrum.sensing import CarrierSenseMap

LENGTHS = (1, 2, 3)


def test_packet_length_and_burstiness(base_config):
    # A lighter activity keeps the L = 3 i.i.d. point finishable.
    config = base_config.with_overrides(p_t=0.15, max_slots=1_500_000)
    pcr = compute_pcr(
        PcrParameters(
            alpha=config.alpha,
            pu_power=config.pu_power,
            su_power=config.su_power,
            pu_radius=config.pu_radius,
            su_radius=config.su_radius,
            eta_p_db=config.eta_p_db,
            eta_s_db=config.eta_s_db,
        )
    )

    def run_matrix():
        rows = {}
        for label, activity in (
            ("iid", None),
            ("bursty", MarkovActivity(p_t=config.p_t, burstiness=12.0)),
        ):
            factory = StreamFactory(config.seed).spawn(f"plen-{label}")
            topology = deploy_crn(
                config.deployment_spec(), factory, activity=activity
            )
            sense_map = CarrierSenseMap(topology, pcr.pcr)
            tree = build_collection_tree(topology.secondary.graph, 0)
            for length in LENGTHS:
                engine = SlottedEngine(
                    topology=topology,
                    sense_map=sense_map,
                    policy=AddcPolicy(tree),
                    streams=factory.spawn(f"run-{length}"),
                    alpha=config.alpha,
                    eta_s=db_to_linear(config.eta_s_db),
                    packet_slots=length,
                    max_slots=config.max_slots,
                )
                engine.load_snapshot()
                rows[(label, length)] = engine.run()
        return rows

    rows = run_matrix()
    print()
    print(f"{'activity':>8} | {'L':>2} | {'delay (ms)':>11} | {'handoffs':>8}")
    for (label, length), result in rows.items():
        delay = f"{result.delay_ms:.1f}" if result.completed else "DNF"
        print(f"{label:>8} | {length:>2} | {delay:>11} | {result.handoffs:>8}")

    for result in rows.values():
        assert result.completed
    # i.i.d.: every extra slot of packet time costs dearly.
    assert rows[("iid", 2)].delay_slots > rows[("iid", 1)].delay_slots
    assert rows[("iid", 3)].delay_slots > rows[("iid", 2)].delay_slots
    # Burstiness rescues long packets: fewer handoffs per delivery and a
    # smaller delay blow-up at L = 3.
    iid_blowup = rows[("iid", 3)].delay_slots / rows[("iid", 1)].delay_slots
    bursty_blowup = (
        rows[("bursty", 3)].delay_slots / rows[("bursty", 1)].delay_slots
    )
    assert bursty_blowup < iid_blowup
