"""The experiment service core (transport-free, directly testable).

:class:`ExperimentService` owns the whole job lifecycle — admission,
cache lookup, durable persistence, supervised execution, quarantine,
recovery, drain — with no sockets anywhere: the AF_UNIX front end
(:mod:`repro.service.server`) is a thin transport over this class, and
the test suite drives it directly.

Lifecycle of one submission
---------------------------
1. The spec is fingerprinted.  A cached artifact answers immediately
   (``cache_hit``, zero engine compute).
2. Otherwise the bounded queue decides: ``accepted`` (job persisted to
   ``jobs/<fp>/job.json`` *before* the acknowledgement, so an accepted
   job survives SIGKILL), ``accepted(duplicate=True)`` (attached to the
   identical in-flight job), or ``retry_after`` (typed backpressure).
3. The worker executes the job under the crash-safe harness with a
   per-job ``checkpoint/v1`` journal; completion writes the artifact
   atomically into the cache, failure quarantines the job with a
   structured error record.  Subscribers get ``progress`` then
   ``completed``/``failed`` events.
4. On startup, :meth:`recover` re-enqueues persisted jobs without
   artifacts in original submission order, resuming their journals —
   a killed daemon finishes its backlog byte-identically.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import repro.obs as obs
from repro.errors import ReproError, ServiceError, error_record
from repro.harness import RetryPolicy
from repro.obs.manifest import build_manifest, write_manifest
from repro.perf.pool import WarmWorkerPool
from repro.service import protocol
from repro.service.cache import ResultCache
from repro.service.jobs import JobSpec, execute_job
from repro.service.queue import JobEntry, JobQueue
from repro.service.state import ServiceState

__all__ = ["ExperimentService"]

#: The service.* counters reported in stats, heartbeats and the drain manifest,
#: each mapped to its literal metric name — reprolint rule OBS002 bans
#: computed metric names (``f"service.{name}"``), so the registry of
#: valid names lives here, spelled out.
_COUNTER_METRICS = {
    "jobs_admitted": "service.jobs_admitted",
    "jobs_completed": "service.jobs_completed",
    "jobs_failed": "service.jobs_failed",
    "jobs_shed": "service.jobs_shed",
    "jobs_recovered": "service.jobs_recovered",
    "jobs_resumed": "service.jobs_resumed",
    "cache_hits": "service.cache_hits",
    "cache_misses": "service.cache_misses",
}

_COUNTERS = tuple(_COUNTER_METRICS)


class _JobProgress:
    """Adapter: harness ticks -> ``progress`` events for subscribers."""

    def __init__(self, service: "ExperimentService", fingerprint: str, total: int):
        self._service = service
        self._fingerprint = fingerprint
        self._total = total
        self._done = 0

    def tick(self) -> None:
        self._done += 1
        self._service._publish(
            self._fingerprint,
            protocol.progress_event(self._fingerprint, self._done, self._total),
        )


class ExperimentService:
    """The daemon's brain; thread-safe between one server and one worker."""

    def __init__(
        self,
        state_dir: Union[str, Path],
        queue_capacity: int = 4,
        workers: int = 1,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.state = ServiceState(state_dir)
        self.cache = ResultCache(self.state.cache_dir)
        self.queue = JobQueue(capacity=queue_capacity)
        self.workers = workers
        self.policy = policy
        # One warm worker pool for the daemon's whole lifetime: processes
        # spawn on the first parallel job and are reused by every job
        # after (crash recovery rebuilds them in place).  Serial daemons
        # never pay for a pool.
        self.pool = WarmWorkerPool(workers) if workers > 1 else None
        self._lock = threading.Lock()
        self._subscribers: Dict[str, List[Callable[[Dict], None]]] = {}
        self._failed: Dict[str, Dict] = {}
        self._counters: Dict[str, int] = {name: 0 for name in _COUNTERS}
        self.recovered_jobs = self.recover()

    # ---- bookkeeping --------------------------------------------------- #

    def _count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value
        obs.counter_add(_COUNTER_METRICS[name], value)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    # ---- startup recovery ---------------------------------------------- #

    def recover(self) -> int:
        """Re-enqueue persisted, unfinished jobs; returns how many."""
        count = 0
        for job in self.state.recover():
            # restore(), not offer(): a persisted job was already
            # admitted once — shedding it on restart would break the
            # durability contract, so recovery bypasses capacity.
            if self.queue.restore(job.spec, job.fingerprint) is not None:
                count += 1
                self._count("jobs_recovered")
        return count

    # ---- request handling (server loop side) --------------------------- #

    def submit(
        self, record: Dict, subscriber: Optional[Callable[[Dict], None]] = None
    ) -> Dict:
        """Handle one submit request; always answers, never blocks.

        ``record`` is the wire-form job object.  Returns a ``cache_hit``,
        ``accepted``, ``retry_after``, or ``error`` protocol message.  A
        ``subscriber`` (a streaming client) is subscribed to the job before
        the worker can take it: subscribed after the answer, it would miss
        the events of a job that finished first and wait forever.
        """
        try:
            spec = JobSpec.from_dict(record)
            fingerprint = spec.fingerprint()
        except ReproError as exc:
            return protocol.error_response(exc)
        artifact = self.cache.load_artifact(fingerprint)
        if artifact is not None:
            self._count("cache_hits")
            return protocol.cache_hit(fingerprint, artifact)
        self._count("cache_misses")
        with self._lock:
            failed = self._failed.get(fingerprint)
        if failed is not None:
            return protocol.failed(fingerprint, failed)
        if subscriber is not None:
            self.subscribe(fingerprint, subscriber)
        admission = self.queue.offer(spec, fingerprint)
        if admission.decision == "shed":
            if subscriber is not None:
                with self._lock:
                    self._subscribers[fingerprint].remove(subscriber)
            self._count("jobs_shed")
            return protocol.retry_after(
                admission.retry_after_s, self.queue.depth, self.queue.capacity
            )
        if admission.decision == "duplicate":
            return protocol.accepted(
                fingerprint,
                admission.position,
                self.queue.depth,
                duplicate=True,
            )
        # Persist before acknowledging: an accepted job survives SIGKILL.
        self.state.persist_job(spec, fingerprint, admission.seq)
        self._count("jobs_admitted")
        return protocol.accepted(fingerprint, admission.position, self.queue.depth)

    def result(self, fingerprint: str) -> Dict:
        """Answer a result request from cache, quarantine, or queue state."""
        artifact = self.cache.load_artifact(fingerprint)
        if artifact is not None:
            status = "partial" if artifact.get("status") == "partial" else "complete"
            return protocol.completed(fingerprint, status, artifact)
        with self._lock:
            failed = self._failed.get(fingerprint)
        if failed is not None:
            return protocol.failed(fingerprint, failed)
        if self.queue.running_fingerprint() == fingerprint:
            return protocol.pending(fingerprint, 0, running=True)
        pending = self.queue.pending_fingerprints()
        if fingerprint in pending:
            return protocol.pending(
                fingerprint, pending.index(fingerprint) + 1, running=False
            )
        record = self.state.load_job(fingerprint)
        if record is not None and record.get("status") == "failed":
            return protocol.failed(fingerprint, record.get("error") or {})
        return protocol.error_response(
            ServiceError(f"unknown fingerprint {fingerprint!r}")
        )

    def service_summary(self) -> Dict:
        """The ``extra["service"]`` block for the drain manifest and stats."""
        summary = {
            "queue_depth": self.queue.depth,
            "inflight": self.queue.inflight,
            "capacity": self.queue.capacity,
        }
        summary.update(self.counters())
        return summary

    def stats(self) -> Dict:
        """Live telemetry payload: summary + quarantine + per-phase timings.

        Everything here reads in-memory state (locked counters, queue
        properties, the ambient recorder's profile), so answering a
        ``stats`` request never pauses the event loop or the running job.
        """
        with self._lock:
            quarantined = len(self._failed)
        return {
            "service": self.service_summary(),
            "quarantined": quarantined,
            "phases": obs.profile(),
        }

    def stats_report(self) -> Dict:
        return protocol.stats_report(self.stats())

    def heartbeat(self) -> Dict:
        counters = self.counters()
        return protocol.heartbeat(
            self.queue.depth,
            self.queue.inflight,
            counters["jobs_completed"],
            cache_hits=counters["cache_hits"],
            cache_misses=counters["cache_misses"],
        )

    # ---- subscriptions -------------------------------------------------- #

    def subscribe(self, fingerprint: str, callback: Callable[[Dict], None]) -> None:
        with self._lock:
            self._subscribers.setdefault(fingerprint, []).append(callback)

    def unsubscribe_all(self, callback: Callable[[Dict], None]) -> None:
        with self._lock:
            for callbacks in self._subscribers.values():
                if callback in callbacks:
                    callbacks.remove(callback)

    def _publish(self, fingerprint: str, message: Dict) -> None:
        with self._lock:
            callbacks = list(self._subscribers.get(fingerprint, ()))
        for callback in callbacks:
            try:
                callback(message)
            except Exception:  # noqa: BLE001 — a dead client must not kill a job
                obs.counter_add("service.subscriber_errors")

    # ---- execution (worker thread side) --------------------------------- #

    def _job_total_items(self, spec: JobSpec) -> int:
        return len(spec.points()) * spec.config().repetitions

    def run_next_job(self, timeout_s: Optional[float] = None) -> Optional[str]:
        """Take and execute one job; returns its fingerprint or ``None``.

        The worker thread's loop body.  Never raises on a poisoned job:
        the job is quarantined with a structured error record, announced
        to its subscribers, and the daemon keeps serving.
        """
        entry = self.queue.take(timeout_s=timeout_s)
        if entry is None:
            return None
        try:
            self._execute(entry)
        finally:
            self.queue.mark_done(entry)
        return entry.fingerprint

    def _execute(self, entry: JobEntry) -> None:
        fingerprint = entry.fingerprint
        journal = self.state.journal_path(fingerprint)
        journal.parent.mkdir(parents=True, exist_ok=True)
        resume = journal.exists()
        if resume:
            self._count("jobs_resumed")
        progress = _JobProgress(
            self, fingerprint, self._job_total_items(entry.spec)
        )
        try:
            with obs.span("service.job"):
                result = execute_job(
                    entry.spec,
                    self.cache.artifact_path(fingerprint),
                    checkpoint_path=journal,
                    resume=resume,
                    workers=self.workers,
                    policy=self.policy,
                    progress=progress,
                    extra={"service": {"fingerprint": fingerprint}},
                    pool=self.pool,
                )
            self.cache.sync()
        except Exception as exc:  # noqa: BLE001 — quarantine, don't crash the daemon
            record = error_record(exc)
            with self._lock:
                self._failed[fingerprint] = record
            self.state.mark_job_failed(fingerprint, record)
            self._count("jobs_failed")
            self._publish(fingerprint, protocol.failed(fingerprint, record))
            return
        self._count("jobs_completed")
        self._publish(
            fingerprint,
            protocol.completed(
                fingerprint,
                result.status,
                self.cache.load_artifact(fingerprint),
            ),
        )

    # ---- drain ----------------------------------------------------------- #

    def drain(self) -> Dict:
        """Stop admissions and write the drain manifest.

        Called after the worker thread has finished (or been joined):
        the queue is closed and a run manifest whose ``extra["service"]``
        block carries the counters is written for ``addc-repro obs
        report``.  Recovery never reads it: it reads ``jobs/*/job.json``.
        Returns ``{"counters": ...}``.
        """
        self.queue.close()
        if self.pool is not None:
            self.pool.close()
        manifest = build_manifest(extra={"service": self.service_summary()})
        write_manifest(self.state.drain_manifest_path, manifest)
        return {"counters": self.counters()}
