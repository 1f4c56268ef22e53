"""Run-level and cross-run metrics.

:class:`~repro.sim.results.SimulationResult` carries single-run metrics;
this package aggregates across repetitions and compares algorithms the way
the paper reports them ("on average, ADDC induces 266% less delay compared
with Coolest" — i.e. ``(coolest - addc) / addc`` as a percentage).
"""

from repro.metrics.aggregate import (
    RunStatistics,
    summarize_delays,
    relative_delay_reduction_percent,
)
from repro.metrics.energy import EnergyModel, EnergyReport, energy_consumption
from repro.metrics.breakdown import hop_latencies, packet_journey
from repro.metrics.resilience import ResilienceReport, resilience_report
from repro.metrics.rounds import per_round_delays, sustainable_period_estimate
from repro.metrics.stats import (
    ConfidenceInterval,
    bootstrap_confidence_interval,
    comparison_significant,
    t_confidence_interval,
)

__all__ = [
    "RunStatistics",
    "summarize_delays",
    "relative_delay_reduction_percent",
    "per_round_delays",
    "sustainable_period_estimate",
    "ConfidenceInterval",
    "bootstrap_confidence_interval",
    "comparison_significant",
    "t_confidence_interval",
    "EnergyModel",
    "EnergyReport",
    "energy_consumption",
    "ResilienceReport",
    "resilience_report",
    "hop_latencies",
    "packet_journey",
]
