"""Experiment harness: configs, runners, and the paper's figures.

* :mod:`repro.experiments.config` — the paper's default simulation settings
  plus density-preserving scaled variants.
* :mod:`repro.experiments.runner` — repetition-averaged ADDC/Coolest runs.
* :mod:`repro.experiments.fig4` — Figure 4 (PCR value sweeps, analytic).
* :mod:`repro.experiments.fig6` — Figure 6 (a)-(f) (delay sweeps).
* :mod:`repro.experiments.theory_curves` — Theorem 2 along every sweep.
* :mod:`repro.experiments.report` — plain-text rendering of the results.
* :mod:`repro.experiments.report_all` — one-call full-record regeneration.
* :mod:`repro.experiments.scenarios` — named presets.
* :mod:`repro.experiments.connectivity` — connectivity / distance studies.
* :mod:`repro.experiments.io` — JSON persistence of sweep results.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ComparisonPoint, run_comparison_point
from repro.experiments.fig4 import Fig4Row, figure4_rows
from repro.experiments.fig6 import FIG6_SWEEPS, Fig6Sweep, run_fig6_sweep
from repro.experiments.io import load_sweep
from repro.experiments.report import render_fig4_table, render_fig6_table
from repro.experiments.report_all import generate_report
from repro.experiments.scenarios import Scenario, get_scenario, list_scenarios
from repro.experiments.theory_curves import TheoryPoint, theory_curve

__all__ = [
    "load_sweep",
    "generate_report",
    "Scenario",
    "get_scenario",
    "list_scenarios",
    "TheoryPoint",
    "theory_curve",
    "ExperimentConfig",
    "ComparisonPoint",
    "run_comparison_point",
    "Fig4Row",
    "figure4_rows",
    "FIG6_SWEEPS",
    "Fig6Sweep",
    "run_fig6_sweep",
    "render_fig4_table",
    "render_fig6_table",
]
