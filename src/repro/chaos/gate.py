"""The chaos gate: scenario grid -> contracts -> ratcheted manifest.

``addc-repro chaos gate`` runs the fixed scenario grid
(:mod:`repro.chaos.scenarios`), evaluates every registered resilience
contract (:mod:`repro.chaos.contracts`) over the evidence, and writes a
``manifest/v1`` file whose ``extra["resilience"]`` block carries the
gate's figures and verdicts, and ratchets those figures against the
committed ``BENCH_resilience.json``.  The gate fails (exit 1) on

* any failed contract check, or
* any gated resilience figure regressing beyond the tolerance against
  the committed baseline.  A gated figure that leaves a zero baseline in
  the wrong direction is always a regression: no percentage tolerance
  covers it.

Every figure in the manifest is a deterministic simulation output (no
wall times gate), so the ratchet is machine-independent: re-running the
same grid at the same seed reproduces the baseline figures exactly.
Wall-clock regressions of the whole program are gated end to end by
``benchmarks/e2e_gate.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import repro.obs as obs
from repro.chaos.contracts import (
    ContractCheck,
    evaluate_contracts,
    render_contracts,
)
from repro.chaos.scenarios import GATE_SEED, run_scenario_grid
from repro.errors import ObservabilityError
from repro.obs.manifest import RunManifest, build_manifest, write_manifest

__all__ = [
    "DiffRow",
    "diff_manifests",
    "GateReport",
    "run_gate",
    "gate_manifest",
    "diff_against_baseline",
    "apply_synthetic_violation",
    "write_gate_baseline",
    "render_gate",
]


@dataclass
class DiffRow:
    """One compared figure: old/new values and the ratchet verdict."""

    name: str
    old: float
    new: float
    #: +100 means "twice the old value"; sign follows the raw delta.
    delta_pct: float
    #: True when a larger value is better; latencies and counts are False.
    higher_better: bool
    #: Ungated figures report but never regress.
    gated: bool
    regression: bool


def _resilience_figures(manifest: Dict) -> Dict[str, Dict]:
    """The ``resilience.*`` figures of one manifest dict, by name.

    Each figure declares its own direction and gating at the source
    (:func:`repro.chaos.scenarios.figure`).
    """
    resilience = (manifest.get("extra") or {}).get("resilience")
    if not isinstance(resilience, dict):
        return {}
    return {
        f"resilience.{name}": entry
        for name, entry in (resilience.get("figures") or {}).items()
        if isinstance(entry, dict) and isinstance(entry.get("value"), (int, float))
    }


def diff_manifests(
    old: Dict, new: Dict, tolerance_pct: Optional[float] = None
) -> List[DiffRow]:
    """Compare two manifest dicts; returns one row per shared figure.

    ``tolerance_pct`` arms the ratchet: a gated figure counts as a
    regression when it moved more than that many percent in the wrong
    direction.  ``None`` reports deltas without flagging anything.
    """
    old_figures = _resilience_figures(old)
    new_figures = _resilience_figures(new)
    rows: List[DiffRow] = []
    for name in sorted(set(old_figures) & set(new_figures)):
        before = float(old_figures[name]["value"])
        after = float(new_figures[name]["value"])
        higher_better = bool(old_figures[name].get("higher_better", False))
        gated = bool(old_figures[name].get("gated", True))
        if before:
            delta_pct = (after - before) / before * 100.0
        elif after:
            # Off a zero baseline every move is unboundedly large.
            delta_pct = math.copysign(math.inf, after)
        else:
            delta_pct = 0.0
        regression = False
        if tolerance_pct is not None and gated:
            if higher_better:
                regression = delta_pct < -float(tolerance_pct)
            else:
                regression = delta_pct > float(tolerance_pct)
        rows.append(
            DiffRow(name, before, after, delta_pct, higher_better, gated, regression)
        )
    if not rows:
        raise ObservabilityError(
            "the two manifests share no comparable resilience figures"
        )
    return rows


def _render_diff(rows: List[DiffRow], tolerance_pct: Optional[float]) -> str:
    """Aligned text table of one comparison, worst movers first."""
    width = max(len(row.name) for row in rows)
    ordered = sorted(
        rows,
        key=lambda row: (
            not row.regression,
            -(row.delta_pct if not row.higher_better else -row.delta_pct),
        ),
    )
    lines = [
        f"{'figure':<{width}}  {'old':>12}  {'new':>12}  {'delta':>8}",
    ]
    for row in ordered:
        flags = ""
        if row.regression:
            flags = "  REGRESSION"
        elif not row.gated:
            flags = "  (informational)"
        lines.append(
            f"{row.name:<{width}}  {row.old:>12.6g}  {row.new:>12.6g}  "
            f"{row.delta_pct:>+7.1f}%{flags}"
        )
    regressions = sum(row.regression for row in rows)
    if tolerance_pct is None:
        lines.append(f"{len(rows)} figures compared (no regression gate)")
    elif regressions:
        lines.append(
            f"{regressions} of {len(rows)} gated figures regressed beyond "
            f"{tolerance_pct:g}%"
        )
    else:
        lines.append(
            f"OK: no gated figure regressed beyond {tolerance_pct:g}% "
            f"({len(rows)} compared)"
        )
    return "\n".join(lines)


@dataclass
class GateReport:
    """Everything one gate run produced."""

    figures: Dict
    evidence: Dict
    checks: List[ContractCheck]
    seed: int
    smoke: bool
    include_service: bool
    wall_time_s: float
    #: Baseline comparison rows; ``None`` when no baseline was diffed.
    diff_rows: Optional[List[DiffRow]] = field(default=None)

    @property
    def contract_failures(self) -> int:
        return sum(1 for check in self.checks if not check.passed)

    @property
    def regressions(self) -> int:
        if not self.diff_rows:
            return 0
        return sum(1 for row in self.diff_rows if row.regression)

    @property
    def passed(self) -> bool:
        return not self.contract_failures and not self.regressions


def apply_synthetic_violation(evidence: Dict) -> Dict:
    """Poison the evidence so exactly one contract check must fail.

    The CI canary: a gate that cannot fail is not a gate, so one
    pipeline step runs with this injection and asserts exit 1.  The
    ``empty-schedule-purity`` contract is the victim because it is a
    single self-contained check.
    """
    poisoned = dict(evidence)
    degradation = dict(poisoned.get("degradation") or {})
    degradation["empty_schedule"] = {
        "identical": False,
        "detail": "synthetic violation injected (--synthetic-violation)",
    }
    poisoned["degradation"] = degradation
    return poisoned


def gate_manifest(report: GateReport) -> RunManifest:
    """The ``manifest/v1`` record one gate run commits to.

    Built against a **fresh** recorder so no machine-local timing figure
    (span profile, wall-per-slot) leaks into the ratchet: the only
    comparable figures are the deterministic ``resilience.*`` entries.
    """
    grid = {
        "name": "chaos-gate",
        "seed": report.seed,
        "smoke": report.smoke,
        "include_service": report.include_service,
    }
    return build_manifest(
        seed=report.seed,
        config=grid,
        recorder=obs.MetricsRecorder(),
        extra={
            "resilience": {
                "figures": report.figures,
                "contracts": [check.to_dict() for check in report.checks],
                "grid": dict(grid, wall_time_s=report.wall_time_s),
            }
        },
    )


def run_gate(
    workdir: Union[str, Path],
    seed: int = GATE_SEED,
    smoke: bool = False,
    include_service: bool = True,
    synthetic_violation: bool = False,
    progress=None,
) -> GateReport:
    """Run the grid and evaluate every contract; never raises on failure.

    Contract failures are *findings*, reported in the returned
    :class:`GateReport`; only harness breakage (a scenario that cannot
    run at all) raises.
    """
    started = obs.monotonic_s()
    figures, evidence = run_scenario_grid(
        Path(workdir),
        seed=seed,
        smoke=smoke,
        include_service=include_service,
        progress=progress,
    )
    if synthetic_violation:
        evidence = apply_synthetic_violation(evidence)
    checks = evaluate_contracts(evidence)
    return GateReport(
        figures=figures,
        evidence=evidence,
        checks=checks,
        seed=seed,
        smoke=smoke,
        include_service=include_service,
        wall_time_s=obs.monotonic_s() - started,
    )


def diff_against_baseline(
    report: GateReport,
    baseline_path: Union[str, Path],
    tolerance_pct: Optional[float],
) -> List[DiffRow]:
    """Ratchet this run against the committed baseline manifest.

    Returns the comparison rows (also stored on ``report.diff_rows``).
    A baseline sharing no resilience figures with this run — wrong grid,
    pre-gate manifest — raises :class:`ObservabilityError`, and a
    missing baseline raises too: the gate never silently skips its
    ratchet half.
    """
    baseline = obs.load_manifest(baseline_path).to_dict()
    current = gate_manifest(report).to_dict()
    try:
        rows = diff_manifests(baseline, current, tolerance_pct)
    except ObservabilityError as exc:
        raise ObservabilityError(
            f"baseline {baseline_path} shares no resilience figures with "
            "this gate run (was it written by `chaos gate`?)"
        ) from exc
    report.diff_rows = rows
    return rows


def write_gate_baseline(
    path: Union[str, Path], report: GateReport
) -> None:
    """Write this run's manifest as the new committed baseline."""
    write_manifest(Path(path), gate_manifest(report))


def render_gate(report: GateReport, tolerance_pct: Optional[float]) -> str:
    """The gate's full human report: contracts, then the ratchet."""
    parts = [render_contracts(report.checks)]
    if report.diff_rows is not None:
        parts.append(_render_diff(report.diff_rows, tolerance_pct))
    verdict = (
        "CHAOS GATE: PASS"
        if report.passed
        else (
            f"CHAOS GATE: FAIL ({report.contract_failures} contract "
            f"failures, {report.regressions} ratchet regressions)"
        )
    )
    parts.append(verdict)
    return "\n\n".join(parts)
