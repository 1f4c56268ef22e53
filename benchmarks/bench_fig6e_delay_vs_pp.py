"""Figure 6(e) — data-collection delay vs the PU transmission power P_p.

Paper's observation: delay grows with P_p (stronger PUs need a wider
protection range, so the PCR grows and spectrum opportunities shrink);
ADDC stays well below Coolest (the paper reports 260% less delay on
average).
"""

from __future__ import annotations

from benchmarks.fig6_common import run_fig6_benchmark


def test_fig6e_delay_vs_pu_power(base_config):
    run_fig6_benchmark("fig6e", base_config, increasing=True)
