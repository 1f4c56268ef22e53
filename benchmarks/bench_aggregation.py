"""Extension bench — aggregation latency vs raw-collection delay.

The snapshot-collection task (the paper's) must squeeze all n raw packets
through the base station — one per slot at best — so its delay is
Omega(n).  The aggregation task over the same tree and the same ADDC MAC
needs exactly one transmission per node and has no root bottleneck: its
latency is governed by depth and degree.  The ratio quantifies what the
"without any data aggregation" clause in the paper's task definition
costs.
"""

from __future__ import annotations

from repro.core.aggregation import run_aggregation
from repro.core.collector import run_addc_collection
from repro.experiments.report import render_ablation_table
from repro.metrics.aggregate import summarize_delays
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory


def test_aggregation_vs_collection(base_config):
    def run_both():
        collect_delays, aggregate_delays = [], []
        root = StreamFactory(base_config.seed)
        for rep in range(base_config.repetitions):
            factory = root.spawn(f"agg-{rep}")
            topology = deploy_crn(base_config.deployment_spec(), factory)
            collection = run_addc_collection(
                topology,
                factory.spawn("collect"),
                blocking=base_config.blocking,
                with_bounds=False,
                max_slots=base_config.max_slots,
            )
            aggregation = run_aggregation(
                topology,
                factory.spawn("aggregate"),
                blocking=base_config.blocking,
                max_slots=base_config.max_slots,
            )
            assert collection.result.completed and aggregation.completed
            collect_delays.append(collection.result.delay_ms)
            aggregate_delays.append(aggregation.delay_ms)
        return summarize_delays(collect_delays), summarize_delays(aggregate_delays)

    collection, aggregation = run_both()
    print()
    print(
        render_ablation_table(
            "Raw collection vs in-network aggregation (same MAC, same tree)",
            [
                ("snapshot collection (paper)", collection.mean, collection.std),
                ("aggregation convergecast", aggregation.mean, aggregation.std),
            ],
        )
    )
    ratio = collection.mean / aggregation.mean
    print(f"  cost of 'no aggregation': {ratio:.1f}x")
    assert aggregation.mean * 2 < collection.mean
