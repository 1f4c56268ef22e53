"""Extension bench — the price of distributed asynchronous operation.

The paper argues ADDC matches the order of "existing order-optimal
centralized algorithms" while needing no coordinator and no clock sync.
This bench measures the actual gap against an oracle centralized scheduler
(global knowledge, perfect synchronization, same CDS tree and PCR
separation): slot by slot it activates a maximal compatible link set.

Expected outcome: the oracle is faster — but only by a modest constant
factor, because the dominant cost (waiting out PU activity) binds both.
That constant *is* the price of ADDC's practicality claims.
"""

from __future__ import annotations

from repro.core.collector import run_addc_collection
from repro.experiments.report import render_ablation_table
from repro.metrics.aggregate import summarize_delays
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory
from repro.scheduling.centralized import run_centralized_collection


def test_centralized_gap(base_config):
    config = base_config.with_overrides(blocking="geometric")

    def run_both():
        addc_delays, central_delays = [], []
        root = StreamFactory(config.seed)
        for rep in range(config.repetitions):
            factory = root.spawn(f"gap-{rep}")
            topology = deploy_crn(config.deployment_spec(), factory)
            addc = run_addc_collection(
                topology,
                factory.spawn("addc"),
                with_bounds=False,
                max_slots=config.max_slots,
            )
            central = run_centralized_collection(
                topology, factory.spawn("central"), max_slots=config.max_slots
            )
            assert addc.result.completed and central.completed
            addc_delays.append(addc.result.delay_ms)
            central_delays.append(central.delay_ms)
        return summarize_delays(addc_delays), summarize_delays(central_delays)

    addc, central = run_both()
    print()
    print(
        render_ablation_table(
            "Centralized oracle vs distributed ADDC (delay, ms)",
            [
                ("centralized oracle", central.mean, central.std),
                ("ADDC (distributed, async)", addc.mean, addc.std),
            ],
        )
    )
    gap = addc.mean / central.mean
    print(f"  price of distribution: {gap:.2f}x")
    # The oracle should win, and ADDC must stay within a small constant
    # factor — the empirical content of the order-optimality claim.
    assert central.mean <= addc.mean * 1.1
    assert gap < 5.0
