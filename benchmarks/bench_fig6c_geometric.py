"""Extension bench — Figure 6(c) under exact PU geometry.

The headline Figure 6 reproduction runs the paper's mean-field blocking
(its own modeling regime); this bench repeats the most sensitive sweep —
delay vs p_t — with the exact deployed PU positions.  The claims that must
survive honest physics: the sharp growth in p_t and ADDC beating the
baseline at every point, with the margin allowed to narrow (Coolest's
temperature metric genuinely helps when relays differ).
"""

from __future__ import annotations

from benchmarks.fig6_common import run_fig6_benchmark


def test_fig6c_geometric_blocking(base_config):
    config = base_config.with_overrides(
        blocking="geometric", max_slots=base_config.max_slots * 3
    )
    points = run_fig6_benchmark(
        "fig6c",
        config,
        increasing=True,
        min_mean_reduction_percent=30.0,
    )
    addc = [point.addc_delay_ms.mean for _, point in points]
    assert addc[-1] / addc[0] > 5.0
