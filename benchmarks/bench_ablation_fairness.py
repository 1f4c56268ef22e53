"""Ablation A — the post-transmission fairness wait (Algorithm 1, line 12).

The wait ``tau_c - t_i`` is the paper's fairness mechanism (Theorem 1's
property P rests on it).  This ablation measures its delay cost/benefit and
its effect on per-flow fairness (Jain index over per-source end-to-end
delays).
"""

from __future__ import annotations

from repro.core.collector import run_addc_collection
from repro.core.fairness import jain_index
from repro.experiments.report import render_ablation_table
from repro.experiments.runner import run_addc_only
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory


def test_ablation_fairness_wait(base_config):
    def run_both():
        with_wait = run_addc_only(base_config, fairness_wait=True)
        without_wait = run_addc_only(base_config, fairness_wait=False)
        return with_wait, without_wait

    with_wait, without_wait = run_both()
    print()
    print(
        render_ablation_table(
            "Ablation A — fairness wait (ADDC delay, ms)",
            [
                ("with fairness wait", with_wait.mean, with_wait.std),
                ("without fairness wait", without_wait.mean, without_wait.std),
            ],
        )
    )
    # The wait is a per-transmission overhead below one contention window,
    # so its completion-time cost must stay small (within 25%).
    assert with_wait.mean <= without_wait.mean * 1.25

    # Fairness side: per-source delay spread with the wait enabled.
    factory = StreamFactory(base_config.seed).spawn("fairness-ablation")
    topology = deploy_crn(base_config.deployment_spec(), factory)
    outcome = run_addc_collection(
        topology,
        factory.spawn("addc"),
        blocking=base_config.blocking,
        with_bounds=False,
    )
    delays = [record.delay_slots for record in outcome.result.deliveries]
    index = jain_index(delays)
    print(f"  per-source delay Jain index (with wait): {index:.3f}")
    assert index > 0.4
