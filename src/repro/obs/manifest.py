"""Run provenance manifests (schema ``manifest/v1``).

A manifest records everything needed to interpret — and re-run — one
experiment artifact: the root seed, a fingerprint of the exact
configuration, the package version, the platform, the measured wall time,
and the metric/profile snapshot of the recorder that watched the run.
:func:`repro.experiments.io.write_artifact` writes one alongside every
artifact when given one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform as _platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro._version import __version__
from repro.errors import ObservabilityError
from repro.obs.clock import wall_clock_iso
from repro.storage import atomic_write_text

__all__ = [
    "MANIFEST_SCHEMA",
    "RunManifest",
    "config_fingerprint",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "manifest_path_for",
]

MANIFEST_SCHEMA = "manifest/v1"


@dataclass
class RunManifest:
    """Provenance record of one run or sweep (see docs/OBSERVABILITY.md)."""

    schema: str = MANIFEST_SCHEMA
    created_utc: str = ""
    seed: Optional[int] = None
    config_hash: Optional[str] = None
    config: Optional[Dict] = None
    package_version: str = __version__
    platform: Dict = field(default_factory=dict)
    wall_time_s: Optional[float] = None
    metrics: Dict = field(default_factory=dict)
    profile: Dict = field(default_factory=dict)
    extra: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """JSON-serializable form."""
        return dataclasses.asdict(self)


def config_fingerprint(config) -> str:
    """A stable hex fingerprint of a configuration.

    Accepts a dataclass (e.g. :class:`~repro.experiments.config.ExperimentConfig`)
    or any JSON-serializable mapping; the hash is BLAKE2b over the
    canonical (sorted-key) JSON encoding, so it is reproducible across
    processes and platforms.

    >>> config_fingerprint({"a": 1, "b": 2}) == config_fingerprint({"b": 2, "a": 1})
    True
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        config = dataclasses.asdict(config)
    try:
        canonical = json.dumps(config, sort_keys=True, default=str)
    except (TypeError, ValueError) as exc:
        raise ObservabilityError(f"configuration is not hashable: {exc}") from exc
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def _platform_record() -> Dict:
    """The platform fields stamped into every manifest."""
    return {
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "system": _platform.system(),
        "machine": _platform.machine(),
        "numpy": np.__version__,
    }


def build_manifest(
    seed: Optional[int] = None,
    config=None,
    wall_time_s: Optional[float] = None,
    recorder=None,
    extra: Optional[Dict] = None,
) -> RunManifest:
    """Assemble a :class:`RunManifest` for the current process state.

    ``recorder`` defaults to the process-wide recorder installed via
    :func:`repro.obs.set_recorder`; its metric snapshot and span profile
    are embedded.  ``config`` may be a dataclass or a dict; both the
    fingerprint and (when serializable) the full record are stored.
    """
    if recorder is None:
        import repro.obs as obs

        recorder = obs.get_recorder()
    config_dict: Optional[Dict] = None
    config_hash: Optional[str] = None
    if config is not None:
        config_hash = config_fingerprint(config)
        if dataclasses.is_dataclass(config) and not isinstance(config, type):
            config_dict = dataclasses.asdict(config)
        elif isinstance(config, dict):
            config_dict = config
    return RunManifest(
        schema=MANIFEST_SCHEMA,
        created_utc=wall_clock_iso(),
        seed=seed,
        config_hash=config_hash,
        config=config_dict,
        package_version=__version__,
        platform=_platform_record(),
        wall_time_s=wall_time_s,
        metrics=recorder.snapshot(),
        profile=recorder.profile(),
        extra=dict(extra) if extra else {},
    )


def manifest_path_for(artifact_path: Union[str, Path]) -> Path:
    """The manifest sibling of an artifact: ``sweep.json`` -> ``sweep.manifest.json``."""
    artifact = Path(artifact_path)
    stem = artifact.stem if artifact.suffix else artifact.name
    return artifact.with_name(stem + ".manifest.json")


def write_manifest(path: Union[str, Path], manifest: RunManifest) -> None:
    """Write a manifest to ``path`` atomically and durably.

    Temp sibling + :func:`os.replace` + parent-directory fsync, via
    :func:`repro.storage.atomic_write_text` — the manifest either exists
    whole or not at all, even across a power loss.
    """
    target = Path(path)
    try:
        atomic_write_text(
            target,
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
        )
    except OSError as exc:
        raise ObservabilityError(
            f"cannot write manifest file {target}: {exc}"
        ) from exc


def load_manifest(path: Union[str, Path]) -> RunManifest:
    """Read a manifest written by :func:`write_manifest`.

    Raises :class:`ObservabilityError` (naming the path) when the file is
    missing, not JSON, or of the wrong schema.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(f"cannot read manifest file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != MANIFEST_SCHEMA:
        raise ObservabilityError(
            f"{path} is not a run manifest (expected schema {MANIFEST_SCHEMA!r})"
        )
    known = {f.name for f in dataclasses.fields(RunManifest)}
    unknown = {key: value for key, value in payload.items() if key not in known}
    kwargs = {key: value for key, value in payload.items() if key in known}
    manifest = RunManifest(**kwargs)
    if unknown:
        # Forward compatibility: preserve fields a newer writer added.
        manifest.extra.update({"_unknown_fields": unknown})
    return manifest
