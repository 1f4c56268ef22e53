"""Figure 6(b) — data-collection delay vs the number of SUs (n).

Paper's observation: delay grows with n (a heavier snapshot to collect),
more slowly than with N in Fig. 6(a), and ADDC stays well below Coolest
(the paper reports 282% less delay on average).
"""

from __future__ import annotations

from benchmarks.fig6_common import run_fig6_benchmark


def test_fig6b_delay_vs_num_sus(base_config):
    run_fig6_benchmark("fig6b", base_config, increasing=True)
