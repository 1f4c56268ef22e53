"""Plain-text rendering of reproduced figures.

The benchmark harness prints these tables so that a benchmark run shows the
same rows/series the paper plots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.fig4 import Fig4Row
from repro.experiments.runner import ComparisonPoint

__all__ = ["render_fig4_table", "render_fig6_table", "render_ablation_table"]


def render_fig4_table(rows: Sequence[Fig4Row]) -> str:
    """Figure 4 as text: one block per swept parameter, alphas as columns."""
    by_parameter: Dict[str, Dict[float, Dict[float, Fig4Row]]] = {}
    alphas: List[float] = []
    for row in rows:
        by_parameter.setdefault(row.parameter, {}).setdefault(row.value, {})[
            row.alpha
        ] = row
        if row.alpha not in alphas:
            alphas.append(row.alpha)
    alphas.sort()

    lines: List[str] = ["Figure 4 — PCR value (kappa * r)"]
    for parameter, series in by_parameter.items():
        lines.append("")
        header = f"  {parameter:>10} | " + " | ".join(
            f"PCR(a={alpha:g})" for alpha in alphas
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for value in sorted(series):
            cells = []
            for alpha in alphas:
                row = series[value].get(alpha)
                cells.append(f"{row.pcr:10.2f}" if row else " " * 10)
            lines.append(f"  {value:>10g} | " + " | ".join(cells))
    return "\n".join(lines)


def render_fig6_table(
    name: str,
    description: str,
    points: Sequence[Tuple[float, ComparisonPoint]],
) -> str:
    """One Figure 6 sub-figure as text: the two delay series plus the ratio."""
    lines = [f"Figure 6 ({name}) — {description}"]
    header = (
        f"  {'x':>10} | {'ADDC delay (ms)':>18} | {'Coolest delay (ms)':>20} "
        f"| {'Coolest/ADDC':>12} | {'reduction %':>11}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for x_value, point in points:
        marker = "*" if point.significant() else " "
        lines.append(
            f"  {x_value:>10g} | "
            f"{point.addc_delay_ms.mean:12.1f} ±{point.addc_delay_ms.std:5.0f} | "
            f"{point.coolest_delay_ms.mean:13.1f} ±{point.coolest_delay_ms.std:6.0f} | "
            f"{point.speedup:11.2f}{marker} | {point.reduction_percent:10.0f}%"
        )
    mean_reduction = sum(p.reduction_percent for _, p in points) / len(points)
    lines.append(f"  mean reduction: ADDC induces {mean_reduction:.0f}% less delay")
    lines.append("  (* = gap significant at 5% by Welch's t-test)")
    # Censored repetitions hit max_slots and are absent from the means,
    # which therefore lean low; say so instead of hiding it.
    for x_value, point in points:
        if point.skipped_repetitions:
            kept = len(point.addc_delays)
            lines.append(
                f"  censored at x = {x_value:g}: "
                f"{point.skipped_repetitions} of "
                f"{point.skipped_repetitions + kept} repetition(s) hit "
                f"max_slots; the row averages the other {kept}"
            )
    return "\n".join(lines)


def render_ablation_table(
    title: str, rows: Sequence[Tuple[str, float, float]]
) -> str:
    """Generic ablation table: (variant, mean delay, std)."""
    lines = [title]
    header = f"  {'variant':>28} | {'delay (ms)':>12} | {'std':>8}"
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for variant, mean, std in rows:
        lines.append(f"  {variant:>28} | {mean:12.1f} | {std:8.1f}")
    return "\n".join(lines)
