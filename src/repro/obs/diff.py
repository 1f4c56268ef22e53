"""Manifest-vs-manifest figure comparison (the chaos gate's ratchet).

``addc-repro obs diff OLD.json NEW.json [--fail-on-regression PCT]``
compares two ``manifest/v1`` files — typically the committed
``BENCH_resilience.json`` against a fresh ``chaos gate`` run — and fails
when a gated figure moved more than ``PCT`` percent in the wrong
direction.  A gated figure that leaves a zero baseline in the wrong
direction is always a regression: no percentage tolerance covers it.

Raw wall times are not comparable across workloads or machines, so the
comparison uses rates, per-unit means and deterministic outputs only:

* per-span ``mean_ms`` from the profile (one slot costs what one slot
  costs, whatever the repetition count);
* ``wall_us_per_slot`` — total wall time over ``engine.slots``;
* ``resilience.*`` — the chaos gate's figures from
  ``BENCH_resilience.json`` (deterministic simulation outputs; each
  entry declares its own direction and whether it gates).

``wall_time_s`` is reported for context but never gates.  Only figures
present in **both** manifests are compared.  Wall-clock regressions of
the whole program are gated end to end by ``benchmarks/e2e_gate.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.manifest import MANIFEST_SCHEMA

__all__ = ["DiffRow", "load_manifest_dict", "diff_manifests", "render_diff"]


@dataclass
class DiffRow:
    """One compared figure: old/new values and the ratchet verdict."""

    name: str
    old: float
    new: float
    #: +100 means "twice the old value"; sign follows the raw delta.
    delta_pct: float
    #: True when a larger value is better (speedups); timings are False.
    higher_better: bool
    #: Machine-shape figures report but never gate.
    gated: bool
    regression: bool

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "old": self.old,
            "new": self.new,
            "delta_pct": self.delta_pct,
            "higher_better": self.higher_better,
            "gated": self.gated,
            "regression": self.regression,
        }


def load_manifest_dict(path: Union[str, Path]) -> Dict:
    """Load one manifest file as a plain dict, schema-checked."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            record = json.load(handle)
    except OSError as exc:
        raise ObservabilityError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"manifest {path} is not JSON: {exc}") from exc
    if not isinstance(record, dict) or record.get("schema") != MANIFEST_SCHEMA:
        raise ObservabilityError(
            f"manifest {path} has schema "
            f"{record.get('schema') if isinstance(record, dict) else None!r}, "
            f"expected {MANIFEST_SCHEMA!r}"
        )
    return record


@dataclass
class _Figure:
    value: float
    higher_better: bool = False
    gated: bool = True


def _figures(manifest: Dict) -> Dict[str, _Figure]:
    """Extract every comparable figure from one manifest dict."""
    figures: Dict[str, _Figure] = {}
    wall = manifest.get("wall_time_s")
    if isinstance(wall, (int, float)):
        figures["wall_time_s"] = _Figure(float(wall), gated=False)
    profile = manifest.get("profile") or {}
    for name, stats in profile.items():
        mean = stats.get("mean_ms")
        if isinstance(mean, (int, float)) and mean > 0:
            figures[f"profile.{name}.mean_ms"] = _Figure(float(mean))
    counters = (manifest.get("metrics") or {}).get("counters") or {}
    slots = counters.get("engine.slots")
    if wall and slots:
        figures["wall_us_per_slot"] = _Figure(float(wall) / float(slots) * 1e6)
    extra = manifest.get("extra") or {}
    resilience = extra.get("resilience")
    if isinstance(resilience, dict):
        # Chaos-gate figures declare their own direction and gating at
        # the source (repro.chaos.scenarios); they are deterministic
        # simulation outputs, so the ratchet is machine-independent.
        for name, entry in (resilience.get("figures") or {}).items():
            if not isinstance(entry, dict):
                continue
            value = entry.get("value")
            if isinstance(value, (int, float)):
                figures[f"resilience.{name}"] = _Figure(
                    float(value),
                    higher_better=bool(entry.get("higher_better", False)),
                    gated=bool(entry.get("gated", True)),
                )
    return figures


def diff_manifests(
    old: Dict, new: Dict, tolerance_pct: Optional[float] = None
) -> List[DiffRow]:
    """Compare two manifest dicts; returns one row per shared figure.

    ``tolerance_pct`` arms the ratchet: a gated figure counts as a
    regression when it moved more than that many percent in the wrong
    direction.  ``None`` (no ``--fail-on-regression``) reports deltas
    without flagging anything.
    """
    old_figures = _figures(old)
    new_figures = _figures(new)
    rows: List[DiffRow] = []
    for name in sorted(set(old_figures) & set(new_figures)):
        before = old_figures[name]
        after = new_figures[name]
        if before.value:
            delta_pct = (after.value - before.value) / before.value * 100.0
        elif after.value:
            # Off a zero baseline every move is unboundedly large.
            delta_pct = math.copysign(math.inf, after.value)
        else:
            delta_pct = 0.0
        regression = False
        if tolerance_pct is not None and before.gated:
            if before.higher_better:
                regression = delta_pct < -float(tolerance_pct)
            else:
                regression = delta_pct > float(tolerance_pct)
        rows.append(
            DiffRow(
                name=name,
                old=before.value,
                new=after.value,
                delta_pct=delta_pct,
                higher_better=before.higher_better,
                gated=before.gated,
                regression=regression,
            )
        )
    if not rows:
        raise ObservabilityError(
            "the two manifests share no comparable performance figures"
        )
    return rows


def render_diff(rows: List[DiffRow], tolerance_pct: Optional[float]) -> str:
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
