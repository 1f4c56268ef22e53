"""Extension bench — channel-selection strategies under skewed licensing.

With a *uniform* channel plan all idle-channel strategies behave alike; the
interesting regime is skewed licensing (real whitespace maps are), where
most PUs crowd one channel.  Compares the four strategies on a 3-channel
plan with every PU licensed to channel 0:

* ``random-idle`` spreads over whatever is idle right now;
* ``sticky`` keeps its channel while it works;
* ``least-blocked`` statically avoids the PU-crowded channel entirely;
* ``adaptive`` learns the same avoidance from its own outcomes.
"""

from __future__ import annotations

import numpy as np

from repro.core.addc import AddcPolicy
from repro.core.pcr import PcrParameters, compute_pcr, db_to_linear
from repro.graphs.tree import build_collection_tree
from repro.network.channels import ChannelPlan
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory
from repro.sim.engine import SlottedEngine
from repro.spectrum.sensing import CarrierSenseMap

STRATEGIES = ("random-idle", "sticky", "least-blocked", "adaptive")


def test_channel_strategies_under_skewed_plan(base_config):
    factory = StreamFactory(base_config.seed).spawn("strategies")
    topology = deploy_crn(base_config.deployment_spec(), factory)
    plan = ChannelPlan(3, np.zeros(topology.primary.num_pus, dtype=int))
    pcr = compute_pcr(
        PcrParameters(
            alpha=base_config.alpha,
            pu_power=base_config.pu_power,
            su_power=base_config.su_power,
            pu_radius=base_config.pu_radius,
            su_radius=base_config.su_radius,
            eta_p_db=base_config.eta_p_db,
            eta_s_db=base_config.eta_s_db,
        )
    )
    sense_map = CarrierSenseMap(topology, pcr.pcr)
    tree = build_collection_tree(topology.secondary.graph, 0)

    def run_all():
        results = {}
        for strategy in STRATEGIES:
            engine = SlottedEngine(
                topology=topology,
                sense_map=sense_map,
                policy=AddcPolicy(tree),
                streams=factory.spawn(f"strategy-{strategy}"),
                alpha=base_config.alpha,
                eta_s=db_to_linear(base_config.eta_s_db),
                channel_plan=plan,
                channel_strategy=strategy,
                max_slots=base_config.max_slots,
            )
            engine.load_snapshot()
            results[strategy] = engine.run()
        return results

    results = run_all()
    print()
    print(f"{'strategy':>14} | {'delay (ms)':>10} | {'frozen slots':>12} | "
          f"{'collisions':>10}")
    for strategy in STRATEGIES:
        result = results[strategy]
        print(
            f"{strategy:>14} | {result.delay_ms:>10.1f} | "
            f"{result.frozen_slot_count:>12} | {result.collisions:>10}"
        )

    for result in results.values():
        assert result.completed
    # Static channel knowledge eliminates PU blocking entirely on the
    # skewed plan ...
    assert results["least-blocked"].frozen_slot_count == 0
    # ... and the delays order by how much each strategy knows: full
    # static knowledge < learned knowledge < memoryless < sticky (which
    # keeps re-choosing the PU-crowded channel whenever it looks idle).
    assert (
        results["least-blocked"].delay_slots
        < results["adaptive"].delay_slots
        < results["random-idle"].delay_slots * 1.1
        < results["sticky"].delay_slots
    )
