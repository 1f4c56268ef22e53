"""Figure 6(f) — data-collection delay vs the SU transmission power P_s.

Paper's observation: delay grows with P_s (stronger SUs interfere more,
the PCR grows symmetrically to Fig. 6(e), opportunities shrink); ADDC
stays well below Coolest (the paper reports 273% less delay on average).
"""

from __future__ import annotations

from benchmarks.fig6_common import run_fig6_benchmark


def test_fig6f_delay_vs_su_power(base_config):
    run_fig6_benchmark("fig6f", base_config, increasing=True)
