"""Shared driver for the six Figure 6 benchmarks.

Each benchmark regenerates one sub-figure's two delay series (ADDC and
Coolest), prints the same rows the paper plots, and asserts the *shape*:

* the trend of both series along the sweep (delay up for N, n, p_t, P_p,
  P_s; down for alpha), allowing one local inversion for simulation noise
  at bench repetitions, and
* the winner: ADDC beats Coolest at every point, by a clear margin on
  average (the paper reports 171%-314% mean reduction).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig6 import FIG6_SWEEPS, run_fig6_sweep
from repro.experiments.report import render_fig6_table
from repro.experiments.runner import ComparisonPoint

__all__ = ["run_fig6_benchmark"]


def _count_inversions(series: List[float], increasing: bool) -> int:
    inversions = 0
    for left, right in zip(series, series[1:]):
        if increasing and right < left:
            inversions += 1
        if not increasing and right > left:
            inversions += 1
    return inversions


def run_fig6_benchmark(
    name: str,
    base_config: ExperimentConfig,
    increasing: bool = True,
    min_mean_reduction_percent: float = 50.0,
    workers: int = 1,
) -> List[Tuple[float, ComparisonPoint]]:
    """Run one sub-figure sweep, print it, and assert its shape.

    ``workers`` > 1 fans the sweep out over a process pool; the asserted
    series are bit-identical either way, so this only trades wall-clock.
    """
    sweep = FIG6_SWEEPS[name]
    points = run_fig6_sweep(sweep, base_config, workers=workers)
    print()
    print(render_fig6_table(sweep.name, sweep.description, points))

    addc = [point.addc_delay_ms.mean for _, point in points]
    coolest = [point.coolest_delay_ms.mean for _, point in points]

    # Trend: a clear end-to-end movement with at most one local inversion.
    if increasing:
        assert addc[-1] > addc[0]
        assert coolest[-1] > coolest[0]
    else:
        assert addc[-1] < addc[0]
        assert coolest[-1] < coolest[0]
    # Local noise tolerance at bench repetitions: at most two adjacent
    # inversions, never a reversed end-to-end trend.
    assert _count_inversions(addc, increasing) <= 2
    assert _count_inversions(coolest, increasing) <= 2

    # Winner: ADDC at every point, clearly on average.
    for _, point in points:
        assert point.speedup > 1.0
    mean_reduction = sum(p.reduction_percent for _, p in points) / len(points)
    assert mean_reduction > min_mean_reduction_percent
    return points
