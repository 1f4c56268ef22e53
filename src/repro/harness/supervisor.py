"""Supervised execution of sweep work items: deadlines, retries, quarantine.

:class:`WorkerSupervisor` runs work items through one scheduling loop,
on a warm ``spawn`` process pool or, for ``workers=1`` (or a single
item), on an in-parent executor that runs each item as it is submitted.
It survives:

* a worker that **raises** — bounded retries with exponential backoff;
* a worker that **hangs** — a per-item deadline, enforced by rebuilding
  the pool (a running future cannot be cancelled) and resubmitting every
  *other* in-flight item penalty-free;
* a worker that **dies** (OOM kill, segfault) — ``BrokenProcessPool``
  recovery: the pool is rebuilt and the in-flight suspects re-run **one
  at a time** (the isolation probe), so a repeat crash names its culprit
  exactly and innocent bystanders are never charged an attempt;
* a **poison item** — after ``max_attempts`` failures it is quarantined
  into a structured :class:`FailureRecord` instead of aborting the sweep,
  and (for non-crash kinds) given one last serial attempt in the parent
  at the end, so transient pool trouble cannot permanently cost a data
  point.

Determinism contract: the supervisor consumes **no RNG streams** — backoff
is a deterministic schedule on an injected monotonic clock
(:func:`repro.obs.clock.monotonic_s`), and results are returned in
submission order regardless of completion order.  ``KeyboardInterrupt``
cancels pending futures and re-raises
immediately, leaving completed results with the caller's ``on_result``
callback (the checkpoint journal), so a Ctrl-C'd sweep resumes where it
stopped.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import repro.obs as obs
from repro.errors import ConfigurationError, error_record
from repro.obs.clock import monotonic_s, sleep_s
from repro.perf.pool import WarmWorkerPool

__all__ = [
    "FAIL_FAST",
    "capped_backoff_s",
    "RetryPolicy",
    "FailureRecord",
    "ItemTracker",
    "SupervisedRun",
    "WorkerSupervisor",
]

#: Failure kinds a supervised item can accumulate (reusing the
#: slot-stamped ``kind`` vocabulary of :class:`repro.sim.results.FaultRecord`).
FAILURE_KINDS = ("error", "timeout", "crash")

#: The ``stats`` entry each failure kind counts on.
_KIND_STATS = {
    "error": "worker_errors",
    "timeout": "timeouts",
    "crash": "worker_crashes",
}


def capped_backoff_s(attempt: int, base_s: float, max_s: float) -> float:
    """``base_s * 2**(attempt - 1)``, capped at ``max_s``.

    The one backoff schedule: supervised retries
    (:meth:`RetryPolicy.backoff_s`) and the daemon queue's shed delay
    (:class:`repro.service.queue.JobQueue`) both double per attempt.
    """
    if attempt < 1:
        raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
    return min(base_s * 2.0 ** (attempt - 1), max_s)


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline, retry, and backoff knobs for supervised execution.

    ``backoff_s(attempt)`` is a pure deterministic schedule —
    ``base * 2**(attempt-1)`` capped at ``backoff_max_s`` — with *no
    jitter*, deliberately: the supervisor must not consume RNG streams
    (bit-identity) and retry collisions are impossible with one parent.
    """

    #: Per-item wall-clock deadline in seconds; ``None`` disables it.
    timeout_s: Optional[float] = None
    #: Total attempts per item before quarantine (first try included).
    max_attempts: int = 3
    backoff_base_s: float = 0.5
    backoff_max_s: float = 30.0
    #: Give non-crash quarantined items one final serial in-parent try.
    inline_retry: bool = True

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive or None, got {self.timeout_s}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff durations must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Wait before re-running an item that failed ``attempt`` times."""
        return capped_backoff_s(attempt, self.backoff_base_s, self.backoff_max_s)


#: The policy of plain (unjournalled, policy-less) sweep callers: one
#: attempt, no backoff, no inline rescue — a failing repetition surfaces
#: as a quarantine record right away instead of being retried.
FAIL_FAST = RetryPolicy(max_attempts=1, backoff_base_s=0.0, inline_retry=False)


@dataclass
class FailureRecord:
    """One quarantined work item, machine-readable (docs/ROBUSTNESS.md).

    Serialized into checkpoint journals, ``save_sweep`` partial artifacts,
    and run manifests, so a sweep's casualties are auditable long after
    the run.  ``error`` is an :func:`repro.errors.error_record` dict.
    """

    point_index: int
    repetition: int
    kind: str  # one of FAILURE_KINDS
    attempts: int
    error: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "point": self.point_index,
            "rep": self.repetition,
            "kind": self.kind,
            "attempts": self.attempts,
            "error": dict(self.error),
        }

    @classmethod
    def from_dict(cls, record: Dict) -> "FailureRecord":
        return cls(
            point_index=int(record["point"]),
            repetition=int(record["rep"]),
            kind=str(record["kind"]),
            attempts=int(record["attempts"]),
            error=dict(record.get("error") or {}),
        )

    def describe(self) -> str:
        """One log line: ``point 2 rep 1: error after 1 attempt(s)
        (ValueError: boom)``."""
        detail = ": ".join(
            part
            for part in (self.error.get("type"), self.error.get("message"))
            if part
        )
        suffix = f" ({detail})" if detail else ""
        return (
            f"point {self.point_index} rep {self.repetition}: {self.kind} "
            f"after {self.attempts} attempt(s){suffix}"
        )


@dataclass
class ItemTracker:
    """Pure retry/deadline state machine for one work item.

    Separated from the pool plumbing so the policy arithmetic is testable
    with a fake clock: no I/O, no processes, no real time.
    """

    index: int
    item: object
    policy: RetryPolicy
    attempts: int = 0
    #: Earliest clock time the item may be (re)submitted.
    not_before: float = 0.0
    #: Deadline of the in-flight attempt (set at submit time).
    deadline: Optional[float] = None
    last_kind: str = ""
    last_error: Dict = field(default_factory=dict)

    def mark_submitted(self, now: float) -> None:
        """Stamp the attempt's deadline from the policy's timeout."""
        self.deadline = (
            now + self.policy.timeout_s
            if self.policy.timeout_s is not None
            else None
        )

    def deadline_expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def record_failure(self, kind: str, now: float, error: Dict) -> str:
        """Absorb one failure; returns ``"retry"`` or ``"quarantine"``.

        On retry the item backs off: ``not_before`` moves to
        ``now + backoff_s(attempts)``.
        """
        if kind not in FAILURE_KINDS:
            raise ConfigurationError(
                f"unknown failure kind {kind!r}; expected one of {FAILURE_KINDS}"
            )
        self.attempts += 1
        self.deadline = None
        self.last_kind = kind
        self.last_error = error
        if self.attempts >= self.policy.max_attempts:
            return "quarantine"
        self.not_before = now + self.policy.backoff_s(self.attempts)
        return "retry"

    def failure_record(self) -> FailureRecord:
        return FailureRecord(
            point_index=int(getattr(self.item, "point_index", self.index)),
            repetition=int(getattr(self.item, "repetition", 0)),
            kind=self.last_kind or "error",
            attempts=self.attempts,
            error=dict(self.last_error),
        )


@dataclass
class SupervisedRun:
    """What a supervised fan-out returns.

    ``outcomes`` is submission-ordered; quarantined slots hold ``None``.
    ``stats`` carries the resilience history (retries, pool rebuilds,
    timeouts, inline rescues) for the run manifest.
    """

    outcomes: List[Optional[object]]
    failures: List[FailureRecord] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)


def _new_stats() -> Dict[str, int]:
    return {
        "retries": 0,
        "pool_rebuilds": 0,
        "timeouts": 0,
        "worker_errors": 0,
        "worker_crashes": 0,
        "quarantined": 0,
        "inline_rescues": 0,
    }


class _InParentExecutor:
    """The executor of serial runs: ``submit`` runs ``fn`` in the parent.

    It returns an already-completed future, so the scheduling loop treats
    an in-parent call like a pool item that finished at once: a deadline
    can never expire on it (an in-parent call cannot be interrupted).
    """

    def submit(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except (KeyboardInterrupt, SystemExit, GeneratorExit):
            raise
        except BaseException as exc:  # supervised boundary
            future.set_exception(exc)
        return future

    def rebuild(self) -> None:
        """Nothing to rebuild: there are no worker processes."""


class WorkerSupervisor:
    """Run work items under a supervised ``spawn`` process pool.

    ``workers=1`` (or a single item) runs every item in the parent (no
    pool, no pickling) through the same scheduling loop, with the same
    retry/backoff/quarantine policy; deadlines are pool-only (an
    in-parent call cannot be interrupted).  ``clock`` and ``sleep`` are
    injectable for tests; the loop sleeps until the earliest backoff
    ends, so a fake clock must advance when ``sleep`` is called.

    ``pool`` injects a caller-owned :class:`~repro.perf.pool.WarmWorkerPool`
    (e.g. the service daemon's process-lifetime pool): the supervisor
    then leaves the processes warm at the end of ``run`` instead of
    shutting them down, while crash/deadline recovery still rebuilds the
    pool *in place* (same object, fresh processes) either way.  A
    ``KeyboardInterrupt`` abandons the pool — injected or not — because
    its workers may hold half-executed items.
    """

    def __init__(
        self,
        workers: int,
        policy: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = monotonic_s,
        sleep: Callable[[float], None] = sleep_s,
        pool: Optional[WarmWorkerPool] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.policy = policy if policy is not None else RetryPolicy()
        self._clock = clock
        self._sleep = sleep
        self._injected_pool = pool

    # ------------------------------------------------------------------ #
    # Public API                                                          #
    # ------------------------------------------------------------------ #

    def run(
        self,
        fn: Callable,
        items: Sequence[object],
        on_result: Optional[Callable[[int, object], None]] = None,
    ) -> SupervisedRun:
        """Execute ``fn(item)`` for every item, supervised.

        ``on_result(index, outcome)`` fires in the parent as each item
        durably completes (completion order) — the checkpoint hook.  The
        returned outcomes are in submission order.
        """
        trackers = [
            ItemTracker(index=index, item=item, policy=self.policy)
            for index, item in enumerate(items)
        ]
        run = SupervisedRun(outcomes=[None] * len(trackers), stats=_new_stats())
        # Quarantine records by item index, in quarantine order.
        quarantined: Dict[int, FailureRecord] = {}

        def complete(tracker: ItemTracker, outcome: object) -> None:
            run.outcomes[tracker.index] = outcome
            if on_result is not None:
                on_result(tracker.index, outcome)

        def fail(tracker: ItemTracker, kind: str, now: float, error: Dict) -> bool:
            return self._fail(tracker, kind, now, error, run, quarantined)

        in_parent = _InParentExecutor()
        pool: Optional[WarmWorkerPool] = None
        if self.workers > 1 and len(trackers) > 1:
            # An injected pool stays warm across runs; an owned one lives
            # for this run only.  Recovery rebuilds either *in place*.
            pool = self._injected_pool or WarmWorkerPool(self.workers)
        try:
            self._schedule(
                fn,
                trackers,
                in_parent if pool is None else pool,
                1 if pool is None else self.workers,
                complete,
                fail,
                run.stats,
            )
        except KeyboardInterrupt:
            # A Ctrl-C mid-sweep must not lose gathered work: completed
            # results already reached on_result (the journal); cancel
            # everything pending and surface the interrupt so the caller
            # can flush and the user can --resume later.  The pool's
            # workers may hold half-executed items, so even an injected
            # pool is abandoned, not kept warm.
            if pool is not None:
                pool.abandon()
            raise
        if pool is not None and pool is not self._injected_pool:
            pool.close()
        if self.policy.inline_retry:
            self._rescue(fn, run, trackers, quarantined, in_parent, complete)
        return run

    # ------------------------------------------------------------------ #
    # The scheduling loop                                                 #
    # ------------------------------------------------------------------ #

    def _schedule(
        self,
        fn: Callable,
        trackers: List[ItemTracker],
        executor,
        capacity: int,
        complete: Callable[[ItemTracker, object], None],
        fail: Callable[[ItemTracker, str, float, Dict], bool],
        stats: Dict[str, int],
    ) -> None:
        """Run ``trackers`` to completion or quarantine on ``executor``.

        At most ``capacity`` items are in flight.  ``complete`` takes each
        outcome; ``fail`` charges each failed attempt and answers whether
        the item runs again (after its backoff).  Deadline and crash
        recovery call ``executor.rebuild()``.
        """
        pending: List[ItemTracker] = list(trackers)
        probe_queue: List[ItemTracker] = []
        in_flight: Dict[Future, ItemTracker] = {}
        probing: Optional[ItemTracker] = None

        def rebuild() -> None:
            stats["pool_rebuilds"] += 1
            obs.counter_add("harness.pool_rebuilds")
            executor.rebuild()

        def submit(tracker: ItemTracker) -> bool:
            now = self._clock()
            tracker.mark_submitted(now)
            try:
                future = executor.submit(fn, tracker.item)
            except BrokenProcessPool:
                # The pool died between harvest and submit; rebuild and
                # let the main loop retry the submission.
                rebuild()
                return False
            in_flight[future] = tracker
            return True

        while pending or probe_queue or in_flight or probing is not None:
            now = self._clock()
            # --- submissions ------------------------------------------ #
            if probing is None and probe_queue and not in_flight:
                candidate = probe_queue[0]
                if candidate.not_before <= now:
                    probe_queue.pop(0)
                    probing = candidate
                    if not submit(candidate):
                        probe_queue.insert(0, candidate)
                        probing = None
                        continue
            elif probing is None and not probe_queue:
                ready = [t for t in pending if t.not_before <= now]
                for tracker in ready:
                    if len(in_flight) >= capacity:
                        break
                    pending.remove(tracker)
                    if not submit(tracker):
                        pending.insert(0, tracker)
                        break
            if not in_flight:
                waiting = probe_queue + pending
                if not waiting and probing is None:
                    break
                wake = min(t.not_before for t in waiting) if waiting else now
                self._sleep(max(wake - self._clock(), 0.0))
                continue
            # --- wait, bounded by the earliest live deadline ----------- #
            timeout = None
            deadlines = [
                t.deadline for t in in_flight.values() if t.deadline is not None
            ]
            if deadlines:
                timeout = max(min(deadlines) - self._clock(), 0.0)
            done, _ = wait(
                set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            now = self._clock()
            # --- harvest completions ---------------------------------- #
            broken = False
            for future in done:
                tracker = in_flight.pop(future, None)
                if tracker is None:
                    continue
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    broken = True
                    if probing is tracker:
                        # Isolation probe: the crash is attributed.
                        probing = None
                        if fail(
                            tracker,
                            "crash",
                            now,
                            {
                                "code": "worker-crash",
                                "type": "BrokenProcessPool",
                                "message": (
                                    "worker process died while running "
                                    "this item in isolation"
                                ),
                            },
                        ):
                            probe_queue.append(tracker)
                    else:
                        # Collective break: every in-flight item is a
                        # suspect; probe them one at a time, charging no
                        # attempts until a crash is attributed.
                        probe_queue.append(tracker)
                except KeyboardInterrupt:
                    raise
                except BaseException as exc:  # worker raised
                    if isinstance(exc, (SystemExit, GeneratorExit)):
                        raise
                    if probing is tracker:
                        probing = None
                    if fail(tracker, "error", now, error_record(exc)):
                        pending.append(tracker)
                else:
                    if probing is tracker:
                        probing = None
                    complete(tracker, outcome)
            if broken:
                # Sweep the remaining (equally broken) futures into the
                # probe queue and start over on a fresh pool.
                for future, tracker in list(in_flight.items()):
                    if probing is tracker:
                        probing = None
                    probe_queue.append(tracker)
                in_flight.clear()
                rebuild()
                continue
            # --- enforce deadlines ------------------------------------ #
            now = self._clock()
            expired = [
                tracker
                for tracker in in_flight.values()
                if tracker.deadline_expired(now)
            ]
            if expired:
                survivors = [
                    tracker
                    for tracker in in_flight.values()
                    if tracker not in expired
                ]
                in_flight.clear()
                for tracker in expired:
                    if probing is tracker:
                        probing = None
                    if fail(
                        tracker,
                        "timeout",
                        now,
                        {
                            "code": "worker-timeout",
                            "type": "WorkerTimeoutError",
                            "message": (
                                "item exceeded its "
                                f"{self.policy.timeout_s}s deadline"
                            ),
                        },
                    ):
                        pending.append(tracker)
                # Innocent in-flight items lost their worker with the
                # pool; resubmit them penalty-free, ahead of the rest.
                for tracker in reversed(survivors):
                    tracker.deadline = None
                    if probing is tracker:
                        probing = None
                        probe_queue.insert(0, tracker)
                    else:
                        pending.insert(0, tracker)
                rebuild()

    # ------------------------------------------------------------------ #
    # Failure bookkeeping                                                 #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _fail(
        tracker: ItemTracker,
        kind: str,
        now: float,
        error: Dict,
        run: SupervisedRun,
        quarantined: Dict[int, FailureRecord],
    ) -> bool:
        """Charge one failed attempt; ``True`` when the item runs again."""
        run.stats[_KIND_STATS[kind]] += 1
        if kind == "timeout":
            obs.counter_add("harness.timeouts")
        if tracker.record_failure(kind, now, error) == "retry":
            run.stats["retries"] += 1
            obs.counter_add("harness.retries")
            return True
        record = tracker.failure_record()
        run.failures.append(record)
        quarantined[tracker.index] = record
        run.stats["quarantined"] += 1
        obs.counter_add("harness.quarantined")
        return False

    # ------------------------------------------------------------------ #
    # Graceful degradation: a last serial attempt in the parent           #
    # ------------------------------------------------------------------ #

    def _rescue(
        self,
        fn: Callable,
        run: SupervisedRun,
        trackers: List[ItemTracker],
        quarantined: Dict[int, FailureRecord],
        in_parent: _InParentExecutor,
        complete: Callable[[ItemTracker, object], None],
    ) -> None:
        """One in-parent attempt for each non-crash quarantined item.

        A crash-kind item killed its worker process; re-running it in the
        parent would risk the whole sweep, so crashes stay quarantined.
        Timeouts run un-deadlined here (an in-parent call cannot be
        interrupted, and the deadline protected pool throughput, which no
        longer applies to a serial last chance).  An item that fails
        again stays quarantined with its error record refreshed.
        """
        candidates = [
            trackers[index]
            for index, record in quarantined.items()
            if record.kind != "crash"
        ]
        if not candidates:
            return

        def rescued(tracker: ItemTracker, outcome: object) -> None:
            complete(tracker, outcome)
            run.failures.remove(quarantined.pop(tracker.index))
            run.stats["inline_rescues"] += 1
            run.stats["quarantined"] -= 1
            obs.counter_add("harness.inline_rescues")

        def refresh(tracker: ItemTracker, kind: str, now: float, error: Dict) -> bool:
            quarantined[tracker.index].error = error
            return False

        self._schedule(fn, candidates, in_parent, 1, rescued, refresh, run.stats)
