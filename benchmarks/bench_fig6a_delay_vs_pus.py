"""Figure 6(a) — data-collection delay vs the number of PUs (N).

Paper's observation: delay grows quickly as N increases (more PU activity
means each SU waits longer for a spectrum opportunity), and ADDC stays well
below Coolest (the paper reports 266% less delay on average).
"""

from __future__ import annotations

from benchmarks.fig6_common import run_fig6_benchmark


def test_fig6a_delay_vs_num_pus(base_config):
    run_fig6_benchmark("fig6a", base_config, increasing=True)
