"""The daemon's durable state directory and crash recovery.

Layout under one state root::

    state/
      cache/                       fingerprint-keyed artifacts + manifests
      jobs/<fingerprint>/
        job.json                   service-job/v1: spec + seq + enqueue time
        checkpoint.ndjson          the job's checkpoint/v1 journal
        trace.ndjson               the job's merged trace/v2 span tree
      service-state.manifest.json  drain manifest: counters in extra["service"]

The invariants that make recovery trivial:

* ``job.json`` is written (atomically, directory-fsynced) *before* the
  job is acknowledged to the client, so an accepted job survives any
  crash.
* an artifact in ``cache/`` is only ever written *complete* (atomic
  replace), so artifact-exists ⟺ job-done.
* the per-job journal is the harness's fsynced ``checkpoint/v1`` file,
  so an interrupted job resumes from its last durable repetition and
  finishes byte-identically.

Recovery therefore needs no log replay: re-enqueue every persisted job
without an artifact, in original submission order (``seq``); the
daemon resumes a job's journal when one exists.  Jobs marked failed are
left quarantined, not retried forever.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import repro.obs as obs
from repro.errors import ServiceError
from repro.service.jobs import JobSpec
from repro.storage import atomic_write_text, fsync_dir

__all__ = [
    "JOB_SCHEMA",
    "RecoveredJob",
    "ServiceState",
]

JOB_SCHEMA = "service-job/v1"


@dataclass(frozen=True)
class RecoveredJob:
    """One job found on disk at startup that still needs to run."""

    spec: JobSpec
    fingerprint: str
    seq: int


class ServiceState:
    """Owns the state root: job records and journals."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.cache_dir = self.root / "cache"
        self.drain_manifest_path = self.root / "service-state.manifest.json"
        created = not self.jobs_dir.exists()
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        if created:
            fsync_dir(self.root)

    # ---- per-job records ---------------------------------------------- #

    def job_dir(self, fingerprint: str) -> Path:
        return self.jobs_dir / fingerprint

    def job_file(self, fingerprint: str) -> Path:
        return self.job_dir(fingerprint) / "job.json"

    def journal_path(self, fingerprint: str) -> Path:
        return self.job_dir(fingerprint) / "checkpoint.ndjson"

    def persist_job(self, spec: JobSpec, fingerprint: str, seq: int) -> None:
        """Durably record an admitted job *before* it is acknowledged."""
        directory = self.job_dir(fingerprint)
        created = not directory.exists()
        directory.mkdir(parents=True, exist_ok=True)
        if created:
            fsync_dir(self.jobs_dir)
        payload = {
            "schema": JOB_SCHEMA,
            "fingerprint": fingerprint,
            "seq": int(seq),
            "enqueued_utc": obs.wall_clock_iso(),
            "job": spec.to_dict(),
        }
        try:
            atomic_write_text(
                self.job_file(fingerprint),
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
            )
        except OSError as exc:
            raise ServiceError(
                f"cannot persist job record {self.job_file(fingerprint)}: {exc}"
            ) from exc

    def mark_job_failed(self, fingerprint: str, error: Dict) -> None:
        """Quarantine a poisoned job so recovery never retries it blindly."""
        path = self.job_file(fingerprint)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            payload = {"schema": JOB_SCHEMA, "fingerprint": fingerprint}
        payload["status"] = "failed"
        payload["error"] = dict(error)
        try:
            atomic_write_text(
                path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        except OSError as exc:
            raise ServiceError(
                f"cannot quarantine job record {path}: {exc}"
            ) from exc

    def load_job(self, fingerprint: str) -> Optional[Dict]:
        path = self.job_file(fingerprint)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ServiceError(f"job record {path} is unreadable: {exc}") from exc

    # ---- crash recovery ----------------------------------------------- #

    def recover(self) -> List[RecoveredJob]:
        """The jobs to re-enqueue at startup, in submission order.

        Skips jobs whose artifact already exists (done) and jobs marked
        ``failed`` (quarantined — a deliberate operator decision away
        from retry, not an automatic one).
        """
        recovered: List[RecoveredJob] = []
        if not self.jobs_dir.exists():
            return recovered
        for directory in sorted(self.jobs_dir.iterdir()):
            record_path = directory / "job.json"
            if not record_path.exists():
                continue
            try:
                record = json.loads(record_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ServiceError(
                    f"job record {record_path} is unreadable: {exc}"
                ) from exc
            fingerprint = str(record.get("fingerprint") or directory.name)
            if record.get("status") == "failed":
                continue
            if (self.cache_dir / f"{fingerprint}.json").exists():
                continue
            recovered.append(
                RecoveredJob(
                    spec=JobSpec.from_dict(record.get("job") or {}),
                    fingerprint=fingerprint,
                    seq=int(record.get("seq", 0)),
                )
            )
        recovered.sort(key=lambda job: job.seq)
        return recovered
