"""Figure 4 — the PCR value under different parameter settings.

Regenerates every series of the paper's Figure 4: the PCR (kappa * r) as a
function of P_p, P_s, eta_p and eta_s, contrasting alpha = 3 with
alpha = 4.  Pure computation; the assertions pin the paper's two
qualitative observations:

* the PCR is larger for alpha = 3 than for alpha = 4, and
* the PCR is non-decreasing in each parameter (over the regime the paper
  plots, i.e. powers at or above the other network's power).
"""

from __future__ import annotations

from repro.experiments.fig4 import FIG4_SWEEPS, figure4_rows
from repro.experiments.report import render_fig4_table


def test_fig4_pcr_value():
    rows = figure4_rows()
    print()
    print(render_fig4_table(rows))

    by_key = {(r.parameter, r.value, r.alpha): r.pcr for r in rows}
    for parameter, values in FIG4_SWEEPS.items():
        for value in values:
            assert by_key[(parameter, value, 3.0)] > by_key[(parameter, value, 4.0)]
        for alpha in (3.0, 4.0):
            series = [
                by_key[(parameter, value, alpha)]
                for value in values
                if parameter not in ("pu_power", "su_power") or value >= 10.0
            ]
            assert series == sorted(series)
    # Regression anchor: the Fig. 4 default point (alpha=4, everything at
    # its caption value) evaluates to kappa = 3.128.
    defaults = by_key[("pu_power", 10.0, 4.0)]
    assert abs(defaults - 31.28) < 0.01
