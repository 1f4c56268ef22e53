"""Bounded job queue with typed backpressure.

The daemon's admission control: a full queue never blocks a client and
never grows without bound — it *answers*, with a server-suggested
``retry_after_s`` that doubles on consecutive sheds (deterministic
exponential backoff, capped), so saturated clients spread out instead of
piling up.  Duplicate submissions (same fingerprint) attach to the job
already queued or running rather than occupying a second slot.

Thread-safe: the server loop offers while the worker thread takes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional

import repro.obs as obs
from repro.errors import ConfigurationError
from repro.harness.supervisor import capped_backoff_s
from repro.service.jobs import JobSpec

__all__ = ["Admission", "JobEntry", "JobQueue"]

#: The shed delay: 1 s after the first consecutive shed, doubling with
#: each further one, capped at 60 s.
SHED_BACKOFF_BASE_S = 1.0
SHED_BACKOFF_MAX_S = 60.0


@dataclass(frozen=True)
class JobEntry:
    """One admitted job, in submission order (``seq`` is monotonic)."""

    spec: JobSpec
    fingerprint: str
    seq: int


@dataclass(frozen=True)
class Admission:
    """The queue's answer to one ``offer`` — always immediate.

    ``decision`` is ``"queued"`` (admitted; ``position`` is 1-based and
    ``seq`` is the submission number), ``"duplicate"`` (an identical job
    is already queued or running; ``position`` 0 means running), or
    ``"shed"`` (queue full; retry after ``retry_after_s``).
    """

    decision: str
    fingerprint: str
    position: int = 0
    retry_after_s: float = 0.0
    seq: int = 0


class JobQueue:
    """A bounded FIFO of :class:`JobEntry` with shed-instead-of-block."""

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ConfigurationError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._cond = threading.Condition()
        self._pending: List[JobEntry] = []
        self._running: Optional[JobEntry] = None
        self._consecutive_sheds = 0
        self._seq = 0
        self._closed = False

    # ---- producer side (server loop) ---------------------------------- #

    def offer(self, spec: JobSpec, fingerprint: str) -> Admission:
        """Try to admit a job; never blocks, never raises on saturation."""
        with self._cond:
            if self._running is not None and self._running.fingerprint == fingerprint:
                return Admission("duplicate", fingerprint, position=0)
            for index, entry in enumerate(self._pending):
                if entry.fingerprint == fingerprint:
                    return Admission("duplicate", fingerprint, position=index + 1)
            if len(self._pending) >= self.capacity or self._closed:
                self._consecutive_sheds += 1
                retry_after_s = capped_backoff_s(
                    self._consecutive_sheds,
                    SHED_BACKOFF_BASE_S,
                    SHED_BACKOFF_MAX_S,
                )
                return Admission(
                    "shed", fingerprint, retry_after_s=retry_after_s
                )
            self._consecutive_sheds = 0
            self._seq += 1
            entry = JobEntry(spec=spec, fingerprint=fingerprint, seq=self._seq)
            self._pending.append(entry)
            obs.gauge_set("service.queue_depth", len(self._pending))
            self._cond.notify()
            return Admission(
                "queued",
                fingerprint,
                position=len(self._pending),
                seq=entry.seq,
            )

    def restore(self, spec: JobSpec, fingerprint: str) -> Optional[JobEntry]:
        """Re-enqueue an already-admitted job, bypassing capacity.

        Startup recovery only: these jobs were persisted *because* they
        were once admitted, so shedding them on restart would break the
        durability contract.  The queue may transiently exceed capacity
        by the recovered backlog; new ``offer`` calls still shed against
        ``capacity``.  Returns ``None`` if the fingerprint is already
        queued or running.
        """
        with self._cond:
            if self._running is not None and self._running.fingerprint == fingerprint:
                return None
            if any(e.fingerprint == fingerprint for e in self._pending):
                return None
            self._seq += 1
            entry = JobEntry(spec=spec, fingerprint=fingerprint, seq=self._seq)
            self._pending.append(entry)
            obs.gauge_set("service.queue_depth", len(self._pending))
            self._cond.notify()
            return entry

    def close(self) -> None:
        """Stop admitting; wake the consumer so it can observe the close."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ---- consumer side (worker thread) -------------------------------- #

    def take(self, timeout_s: Optional[float] = None) -> Optional[JobEntry]:
        """Pop the oldest pending job, waiting up to ``timeout_s``.

        Returns ``None`` on timeout or when the queue is closed and
        empty.  The entry stays the queue's ``running`` job (visible to
        duplicate detection) until :meth:`mark_done`.
        """
        with self._cond:
            if not self._pending and not self._closed:
                self._cond.wait(timeout=timeout_s)
            if not self._pending:
                return None
            entry = self._pending.pop(0)
            self._running = entry
            obs.gauge_set("service.queue_depth", len(self._pending))
            obs.gauge_set("service.inflight", 1)
            return entry

    def mark_done(self, entry: JobEntry) -> None:
        with self._cond:
            if self._running is not None and self._running.seq == entry.seq:
                self._running = None
            obs.gauge_set("service.inflight", 0)

    # ---- introspection ------------------------------------------------ #

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._pending)

    @property
    def inflight(self) -> int:
        with self._cond:
            return 0 if self._running is None else 1

    def pending_fingerprints(self) -> List[str]:
        """Queue order, for the drain snapshot (oldest first)."""
        with self._cond:
            return [entry.fingerprint for entry in self._pending]

    def running_fingerprint(self) -> Optional[str]:
        with self._cond:
            return None if self._running is None else self._running.fingerprint
