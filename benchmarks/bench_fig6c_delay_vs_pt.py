"""Figure 6(c) — data-collection delay vs the PU activity probability p_t.

Paper's observation: delay increases very fast in p_t (spectrum
opportunities vanish exponentially), and ADDC stays well below Coolest
(the paper reports 314% less delay on average — its largest margin).
"""

from __future__ import annotations

from benchmarks.fig6_common import run_fig6_benchmark


def test_fig6c_delay_vs_pt(base_config):
    points = run_fig6_benchmark("fig6c", base_config, increasing=True)
    # "Very fast" growth: an order of magnitude across the sweep.
    addc = [point.addc_delay_ms.mean for _, point in points]
    assert addc[-1] / addc[0] > 10.0
