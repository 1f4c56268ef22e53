"""Figure 6(d) — data-collection delay vs the path-loss exponent alpha.

Paper's observation: delay *decreases* as alpha grows (a transmitter
interferes less, the PCR shrinks, spectrum opportunities multiply and more
SUs transmit concurrently); ADDC stays below Coolest (the paper reports
171% less delay on average — its smallest margin).

The sweep stays inside the paper formula's valid domain (its c2 constant
turns non-positive for alpha above ~4.25; see DESIGN.md) and above the
alpha where a pure-Python run still finishes (small alpha inflates the
expected spectrum wait beyond 10^5 slots even at the paper's own scale).
"""

from __future__ import annotations

from benchmarks.fig6_common import run_fig6_benchmark


def test_fig6d_delay_vs_alpha(base_config):
    run_fig6_benchmark(
        "fig6d",
        base_config,
        increasing=False,
        min_mean_reduction_percent=40.0,
    )
