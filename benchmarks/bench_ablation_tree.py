"""Ablation C — the routing structure: CDS tree vs plain BFS tree.

The CDS-based tree is what the analysis needs (its backbone is an MIS, so
Lemma 5 bounds the contention ADDC's backbone faces); a BFS shortest-path
tree is the natural alternative with minimum hop depth but no bounded
backbone.  This ablation compares their collection delays under identical
MAC settings.
"""

from __future__ import annotations

from repro.experiments.report import render_ablation_table
from repro.experiments.runner import run_addc_only


def test_ablation_tree_structure(base_config):
    def run_both():
        cds = run_addc_only(base_config, use_cds_tree=True)
        bfs = run_addc_only(base_config, use_cds_tree=False)
        return cds, bfs

    cds, bfs = run_both()
    print()
    print(
        render_ablation_table(
            "Ablation C — routing structure (ADDC delay, ms)",
            [
                ("CDS collection tree", cds.mean, cds.std),
                ("BFS shortest-path tree", bfs.mean, bfs.std),
            ],
        )
    )
    # The CDS tree pays a small hop stretch over the BFS optimum; the
    # delays must stay within a factor of two of each other either way.
    assert cds.mean < 2.0 * bfs.mean
    assert bfs.mean < 2.0 * cds.mean
