"""Fingerprint-keyed result cache with hit provenance.

Artifacts live under one directory, named by the job's BLAKE2b
fingerprint (``<fingerprint>.json`` plus its ``.manifest.json``
sibling).  Because the fingerprint covers the full semantic definition
of the experiment — and nothing else — an identical request is served
from disk with **zero** engine compute, and every hit is appended to a
durable ``cache-log.ndjson`` provenance trail recording exactly which
spec was answered from which artifact, when.

The provenance log shares the record-file discipline of
``checkpoint/v1`` journals (:mod:`repro.storage`): a ``SIGKILL``
landing inside one append can tear at most the final line, so opening
the cache truncates a torn tail (counted on
``service.cache.torn_tail``) instead of refusing to load — while
corruption anywhere *before* the tail still raises
:class:`~repro.errors.ServiceError`, because a mangled interior record
means something other than a crash touched the log.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import repro.obs as obs
from repro.errors import ServiceError
from repro.service.jobs import JobSpec
from repro.storage import (
    RecordError,
    append_record,
    fsync_dir,
    open_append,
    read_records,
    truncate_torn_tail,
)

__all__ = ["ResultCache"]


class ResultCache:
    """Artifacts by fingerprint, plus an append-only hit log."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.log_path = self.root / "cache-log.ndjson"
        self._repair_log_tail()

    def artifact_path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def manifest_path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.manifest.json"

    def has(self, fingerprint: str) -> bool:
        return self.artifact_path(fingerprint).exists()

    def load_artifact(self, fingerprint: str) -> Optional[Dict]:
        """The cached artifact as a JSON object, or ``None`` on miss.

        A corrupt cache entry raises :class:`~repro.errors.ServiceError`
        naming the file — a half-written artifact must never be served
        as a result (writes are atomic, so this indicates tampering).
        """
        path = self.artifact_path(fingerprint)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ServiceError(f"cache entry {path} is unreadable: {exc}") from exc

    def record_hit(self, fingerprint: str, spec: JobSpec) -> Dict:
        """Append one durable ``cache_hit`` provenance record; returns it.

        The first hit creates the log and fsyncs the cache directory
        (:func:`repro.storage.open_append`), so a power loss cannot drop
        the log's directory entry along with hits already acknowledged.
        """
        record = {
            "kind": "cache_hit",
            "fingerprint": fingerprint,
            "at": obs.wall_clock_iso(),
            "artifact": self.artifact_path(fingerprint).name,
            "job": spec.to_dict(),
        }
        try:
            with open_append(self.log_path) as handle:
                append_record(handle, record)
        except OSError as exc:
            raise ServiceError(
                f"cannot append cache provenance to {self.log_path}: {exc}"
            ) from exc
        return record

    def _scan_log(self) -> Tuple[List[Dict], int, bool]:
        """``(records, valid_bytes, torn)`` for the provenance log.

        The torn-tail rule is :func:`repro.storage.read_records`'s; an
        interior line that is not a complete JSON object raises
        :class:`ServiceError`.
        """
        try:
            return read_records(self.log_path)
        except RecordError as exc:
            raise ServiceError(
                f"cache provenance log {self.log_path} is corrupt at "
                f"record {exc.line}: not a complete JSON object"
            ) from exc

    def _repair_log_tail(self) -> None:
        """Truncate a torn final line so the cache loads after a crash."""
        if not self.log_path.exists():
            return
        _records, valid_bytes, torn = self._scan_log()
        if torn:
            truncate_torn_tail(self.log_path, valid_bytes)
            obs.counter_add("service.cache.torn_tail")

    def hit_records(self) -> List[Dict]:
        """All provenance records, oldest first (empty if no hits yet).

        Tolerates a torn final line (returns the valid prefix); interior
        corruption raises :class:`ServiceError`.
        """
        if not self.log_path.exists():
            return []
        return self._scan_log()[0]

    def sync(self) -> None:
        """fsync the cache directory (call after a new artifact lands)."""
        fsync_dir(self.root)
