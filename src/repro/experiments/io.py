"""JSON persistence for experiment outputs.

Long sweeps are expensive; :func:`write_artifact` writes the measured
numbers (a :func:`sweep_payload`, with the exact configuration that
produced them) to disk and :func:`load_sweep` reads them back, so reports
and plots never depend on an in-memory session.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, ExperimentIOError, PartialSweepError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ComparisonPoint
from repro.metrics.aggregate import RunStatistics
from repro.obs.manifest import RunManifest, manifest_path_for, write_manifest
from repro.storage import atomic_write_text

__all__ = [
    "comparison_point_to_dict",
    "comparison_point_from_dict",
    "sweep_payload",
    "write_artifact",
    "load_sweep",
]


def comparison_point_to_dict(point: ComparisonPoint) -> Dict:
    """A JSON-serializable record of one comparison point."""
    return {
        "config": dataclasses.asdict(point.config),
        "addc_delays_ms": list(point.addc_delays),
        "coolest_delays_ms": list(point.coolest_delays),
        "skipped_repetitions": point.skipped_repetitions,
    }


def _statistics(values: List[float]) -> RunStatistics:
    from repro.metrics.aggregate import summarize_delays

    return summarize_delays(values)


def comparison_point_from_dict(record: Dict) -> ComparisonPoint:
    """Rebuild a :class:`ComparisonPoint` from its JSON record."""
    for key in ("config", "addc_delays_ms", "coolest_delays_ms"):
        if key not in record:
            raise ConfigurationError(f"record is missing {key!r}")
    config = ExperimentConfig(**record["config"])
    addc = [float(v) for v in record["addc_delays_ms"]]
    coolest = [float(v) for v in record["coolest_delays_ms"]]
    return ComparisonPoint(
        config=config,
        addc_delay_ms=_statistics(addc),
        coolest_delay_ms=_statistics(coolest),
        addc_delays=addc,
        coolest_delays=coolest,
        # Absent in artifacts written before skip-support existed.
        skipped_repetitions=int(record.get("skipped_repetitions", 0)),
    )


def sweep_payload(
    name: str, points: Sequence[Tuple[float, ComparisonPoint]]
) -> Dict:
    """The JSON payload of one figure sweep (what :func:`load_sweep` reads)."""
    return {
        "name": name,
        "points": [
            {"x": float(x), "comparison": comparison_point_to_dict(point)}
            for x, point in points
        ],
    }


def write_artifact(
    path: Union[str, Path],
    payload: Dict,
    manifest: Optional[RunManifest] = None,
    status: str = "complete",
    failures: Optional[Sequence[Dict]] = None,
) -> None:
    """Write one experiment artifact to JSON, atomically and durably.

    The payload lands in a temporary sibling file that replaces the
    target via :func:`os.replace`, and the parent directory is fsynced
    afterwards (see :mod:`repro.storage`), so neither a crash nor a power
    loss ever exposes a half-written artifact — an overnight sweep
    interrupted mid-save keeps its previous good artifact.

    When a :class:`~repro.obs.RunManifest` is given, it is written next to
    the artifact (``sweep.json`` gets ``sweep.manifest.json``) *after* the
    artifact itself, so a manifest never exists without its data.

    ``status="partial"`` marks a sweep the crash-safe harness degraded
    gracefully (quarantined items, see docs/ROBUSTNESS.md); ``failures``
    then carries the machine-readable failed-item records.  A complete
    artifact is the bare payload — no new keys — so harness-run
    artifacts stay byte-identical to plain-run ones.
    """
    if status not in ("complete", "partial"):
        raise ConfigurationError(
            f"status must be 'complete' or 'partial', got {status!r}"
        )
    if status != "complete":
        payload = dict(
            payload,
            status=status,
            failures=[dict(record) for record in (failures or [])],
        )
    target = Path(path)
    try:
        atomic_write_text(target, json.dumps(payload, indent=2, sort_keys=True))
    except OSError as exc:
        raise ExperimentIOError(f"cannot write artifact {target}: {exc}") from exc
    if manifest is not None:
        write_manifest(manifest_path_for(target), manifest)


def load_sweep(
    path: Union[str, Path], allow_partial: bool = False
) -> Tuple[str, List[Tuple[float, ComparisonPoint]]]:
    """Read a sweep artifact written by :func:`write_artifact`.

    Raises
    ------
    ExperimentIOError
        If the file is missing, unreadable, not JSON, or JSON of the
        wrong shape — always naming the offending path.
    PartialSweepError
        If the artifact is marked ``status: partial`` (the crash-safe
        harness quarantined some items) and ``allow_partial`` is False —
        partial data must be opted into, never mistaken for a complete
        evaluation.  The message lists the failed items.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentIOError(f"cannot read sweep file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "name" not in payload or "points" not in payload:
        raise ExperimentIOError(
            f"{path} is not a sweep file (expected a JSON object with "
            "'name' and 'points')"
        )
    status = payload.get("status", "complete")
    if status != "complete" and not allow_partial:
        failed = payload.get("failures") or []
        detail = "; ".join(
            f"point {record.get('point')} rep {record.get('rep')} "
            f"({record.get('kind', 'error')})"
            for record in failed
        )
        raise PartialSweepError(
            f"sweep file {path} is marked status={status!r}"
            + (f" — failed items: {detail}" if detail else "")
            + "; pass allow_partial=True (or --allow-partial) to load it anyway"
        )
    try:
        points = [
            (float(entry["x"]), comparison_point_from_dict(entry["comparison"]))
            for entry in payload["points"]
        ]
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        raise ExperimentIOError(
            f"sweep file {path} is corrupt: bad point record ({exc})"
        ) from exc
    return str(payload["name"]), points
