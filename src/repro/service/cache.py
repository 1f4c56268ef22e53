"""Fingerprint-keyed result cache.

Artifacts live under one directory, named by the job's BLAKE2b
fingerprint (``<fingerprint>.json`` plus its ``.manifest.json``
sibling).  Because the fingerprint covers the full semantic definition
of the experiment — and nothing else — an identical request is served
from disk with **zero** engine compute.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

from repro.errors import ServiceError
from repro.storage import fsync_dir

__all__ = ["ResultCache"]


class ResultCache:
    """Completed artifacts, keyed by job fingerprint."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def artifact_path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

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

    def sync(self) -> None:
        """fsync the cache directory (call after a new artifact lands)."""
        fsync_dir(self.root)
