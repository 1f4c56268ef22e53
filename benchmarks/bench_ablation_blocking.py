"""Ablation D (extension) — mean-field vs exact-geometry PU blocking.

The paper's analysis and evaluation assume every SU waits ``tau / p_o`` for
a spectrum opportunity (Lemma 7's mean field).  With the exact deployed PU
geometry, per-node opportunity rates are heterogeneous — a relay ringed by
PUs can be an order of magnitude slower than average — which genuinely
helps the spectrum-aware Coolest baseline (its temperature metric avoids
hot relays) and hurts ADDC's spectrum-oblivious CDS backbone.

This benchmark quantifies the modeling gap: the ADDC-vs-Coolest ordering
survives in both modes, but the margin shrinks under exact geometry.
"""

from __future__ import annotations

from repro.experiments.report import render_ablation_table
from repro.experiments.runner import run_comparison_point


def test_ablation_blocking_model(base_config):
    def run_both_modes():
        mean_field = run_comparison_point(
            base_config.with_overrides(blocking="homogeneous")
        )
        geometric = run_comparison_point(
            base_config.with_overrides(blocking="geometric")
        )
        return mean_field, geometric

    mean_field, geometric = run_both_modes()
    print()
    print(
        render_ablation_table(
            "Ablation D — blocking model (delay, ms)",
            [
                ("mean-field / ADDC", mean_field.addc_delay_ms.mean,
                 mean_field.addc_delay_ms.std),
                ("mean-field / Coolest", mean_field.coolest_delay_ms.mean,
                 mean_field.coolest_delay_ms.std),
                ("geometric / ADDC", geometric.addc_delay_ms.mean,
                 geometric.addc_delay_ms.std),
                ("geometric / Coolest", geometric.coolest_delay_ms.mean,
                 geometric.coolest_delay_ms.std),
            ],
        )
    )
    print(
        f"  speedup: mean-field {mean_field.speedup:.2f}x, "
        f"geometric {geometric.speedup:.2f}x"
    )
    # The ordering survives in both modes.  (Which mode shows the larger
    # margin is scale-dependent: at areas much larger than the PCR disk,
    # geometric heterogeneity favours Coolest's hot-relay avoidance and
    # narrows its deficit; at bench scale the whole region is only a few
    # PCR disks wide and the margins are comparable.)
    assert mean_field.speedup > 1.5
    assert geometric.speedup > 1.0
