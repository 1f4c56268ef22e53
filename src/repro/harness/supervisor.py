"""Supervised execution of sweep work items: deadlines, retries, quarantine.

:class:`WorkerSupervisor` fans work items over a warm ``spawn`` process
pool (or runs them inline for ``workers=1``) and survives:

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
  and (for non-crash kinds) given one last inline serial attempt at the
  end, so transient pool trouble cannot permanently cost a data point.

Determinism contract: the supervisor consumes **no RNG streams** — backoff
is a deterministic schedule on an injected monotonic clock
(:func:`repro.obs.clock.monotonic_s`), and results are returned in
submission order regardless of completion order.  ``KeyboardInterrupt`` cancels pending futures and re-raises
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
    "RetryPolicy",
    "FailureRecord",
    "ItemTracker",
    "SupervisedRun",
    "WorkerSupervisor",
]

#: Failure kinds a supervised item can accumulate (reusing the
#: slot-stamped ``kind`` vocabulary of :class:`repro.sim.results.FaultRecord`).
FAILURE_KINDS = ("error", "timeout", "crash")


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline, retry, and backoff knobs for supervised execution.

    ``backoff_s(attempt)`` is a pure deterministic schedule —
    ``base * factor**(attempt-1)`` capped at ``backoff_max_s`` — with *no
    jitter*, deliberately: the supervisor must not consume RNG streams
    (bit-identity) and retry collisions are impossible with one parent.
    """

    #: Per-item wall-clock deadline in seconds; ``None`` disables it.
    timeout_s: Optional[float] = None
    #: Total attempts per item before quarantine (first try included).
    max_attempts: int = 3
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
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
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_s(self, attempt: int) -> float:
        """Wait before re-running an item that failed ``attempt`` times."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        return min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )


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


class WorkerSupervisor:
    """Run work items under a supervised ``spawn`` process pool.

    ``workers=1`` executes inline (no pool, no pickling) with the same
    retry/backoff/quarantine policy, so checkpointing and serial runs
    share one code path; deadlines are pool-only (an inline call cannot
    be interrupted).  ``clock`` and ``sleep`` are injectable for tests.

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
        stats = _new_stats()
        if self.workers == 1 or len(trackers) <= 1:
            run = self._run_inline(fn, trackers, on_result, stats)
        else:
            run = self._run_pool(fn, trackers, on_result, stats)
        if self.policy.inline_retry:
            self._rescue_inline(fn, run, trackers, on_result)
        return run

    # ------------------------------------------------------------------ #
    # Inline (workers == 1) path                                          #
    # ------------------------------------------------------------------ #

    def _run_inline(
        self,
        fn: Callable,
        trackers: List[ItemTracker],
        on_result: Optional[Callable[[int, object], None]],
        stats: Dict[str, int],
    ) -> SupervisedRun:
        outcomes: List[Optional[object]] = [None] * len(trackers)
        failures: List[FailureRecord] = []
        for tracker in trackers:
            while True:
                try:
                    outcome = fn(tracker.item)
                except KeyboardInterrupt:
                    raise
                except BaseException as exc:  # supervised boundary
                    if isinstance(exc, (SystemExit, GeneratorExit)):
                        raise
                    verdict = tracker.record_failure(
                        "error", self._clock(), error_record(exc)
                    )
                    stats["worker_errors"] += 1
                    if verdict == "quarantine":
                        self._quarantine(tracker, failures, stats)
                        break
                    stats["retries"] += 1
                    obs.counter_add("harness.retries")
                    self._sleep(self.policy.backoff_s(tracker.attempts))
                else:
                    outcomes[tracker.index] = outcome
                    if on_result is not None:
                        on_result(tracker.index, outcome)
                    break
        return SupervisedRun(outcomes=outcomes, failures=failures, stats=stats)

    # ------------------------------------------------------------------ #
    # Pool path                                                           #
    # ------------------------------------------------------------------ #

    def _run_pool(
        self,
        fn: Callable,
        trackers: List[ItemTracker],
        on_result: Optional[Callable[[int, object], None]],
        stats: Dict[str, int],
    ) -> SupervisedRun:
        outcomes: List[Optional[object]] = [None] * len(trackers)
        failures: List[FailureRecord] = []
        pending: List[ItemTracker] = list(trackers)
        probe_queue: List[ItemTracker] = []
        in_flight: Dict[Future, ItemTracker] = {}
        probing: Optional[ItemTracker] = None
        # An injected pool stays warm across runs; an owned one lives for
        # this run only.  Recovery rebuilds either *in place*.
        pool = self._injected_pool
        owned = pool is None
        if owned:
            pool = WarmWorkerPool(self.workers)

        def submit(tracker: ItemTracker) -> bool:
            now = self._clock()
            tracker.mark_submitted(now)
            try:
                future = pool.submit(fn, tracker.item)
            except BrokenProcessPool:
                # The pool died between harvest and submit; rebuild and
                # let the main loop retry the submission.
                stats["pool_rebuilds"] += 1
                obs.counter_add("harness.pool_rebuilds")
                pool.rebuild()
                return False
            in_flight[future] = tracker
            return True

        try:
            while pending or probe_queue or in_flight or probing is not None:
                now = self._clock()
                # --- submissions -------------------------------------- #
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
                        if len(in_flight) >= self.workers:
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
                # --- wait, bounded by the earliest live deadline ------- #
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
                # --- harvest completions ------------------------------ #
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
                            stats["worker_crashes"] += 1
                            self._fail(
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
                                probe_queue,
                                failures,
                                stats,
                            )
                        else:
                            # Collective break: every in-flight item is a
                            # suspect; probe them one at a time, charging
                            # no attempts until a crash is attributed.
                            probe_queue.append(tracker)
                    except KeyboardInterrupt:
                        raise
                    except BaseException as exc:  # worker raised
                        if isinstance(exc, (SystemExit, GeneratorExit)):
                            raise
                        if probing is tracker:
                            probing = None
                        stats["worker_errors"] += 1
                        self._fail(
                            tracker,
                            "error",
                            now,
                            error_record(exc),
                            pending,
                            failures,
                            stats,
                        )
                    else:
                        if probing is tracker:
                            probing = None
                        outcomes[tracker.index] = outcome
                        if on_result is not None:
                            on_result(tracker.index, outcome)
                if broken:
                    # Sweep the remaining (equally broken) futures into
                    # the probe queue and start over on a fresh pool.
                    for future, tracker in list(in_flight.items()):
                        if probing is tracker:
                            probing = None
                        probe_queue.append(tracker)
                    in_flight.clear()
                    stats["pool_rebuilds"] += 1
                    obs.counter_add("harness.pool_rebuilds")
                    pool.rebuild()
                    continue
                # --- enforce deadlines -------------------------------- #
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
                        stats["timeouts"] += 1
                        obs.counter_add("harness.timeouts")
                        self._fail(
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
                            pending,
                            failures,
                            stats,
                        )
                    # Innocent in-flight items lost their worker with the
                    # pool; resubmit them penalty-free, ahead of the rest.
                    for tracker in reversed(survivors):
                        tracker.deadline = None
                        if probing is tracker:
                            probing = None
                            probe_queue.insert(0, tracker)
                        else:
                            pending.insert(0, tracker)
                    stats["pool_rebuilds"] += 1
                    obs.counter_add("harness.pool_rebuilds")
                    pool.rebuild()
        except KeyboardInterrupt:
            # Satellite: a Ctrl-C mid-sweep must not lose gathered work.
            # Completed results already reached on_result (the journal);
            # cancel everything pending and surface the interrupt so the
            # caller can flush and the user can --resume later.  The
            # pool's workers may hold half-executed items, so even an
            # injected pool is abandoned, not kept warm.
            pool.abandon()
            raise
        else:
            if owned:
                pool.close()
        return SupervisedRun(outcomes=outcomes, failures=failures, stats=stats)

    # ------------------------------------------------------------------ #
    # Shared failure bookkeeping                                          #
    # ------------------------------------------------------------------ #

    def _fail(
        self,
        tracker: ItemTracker,
        kind: str,
        now: float,
        error: Dict,
        retry_queue: List[ItemTracker],
        failures: List[FailureRecord],
        stats: Dict[str, int],
    ) -> None:
        verdict = tracker.record_failure(kind, now, error)
        if verdict == "quarantine":
            self._quarantine(tracker, failures, stats)
            return
        stats["retries"] += 1
        obs.counter_add("harness.retries")
        retry_queue.append(tracker)

    @staticmethod
    def _quarantine(
        tracker: ItemTracker,
        failures: List[FailureRecord],
        stats: Dict[str, int],
    ) -> None:
        record = tracker.failure_record()
        failures.append(record)
        stats["quarantined"] += 1
        obs.counter_add("harness.quarantined")

    # ------------------------------------------------------------------ #
    # Graceful degradation: last-chance inline retries                    #
    # ------------------------------------------------------------------ #

    def _rescue_inline(
        self,
        fn: Callable,
        run: SupervisedRun,
        trackers: List[ItemTracker],
        on_result: Optional[Callable[[int, object], None]],
    ) -> None:
        """One serial in-parent attempt for non-crash quarantined items.

        A crash-kind item killed its worker process; re-running it in the
        parent would risk the whole sweep, so crashes stay quarantined.
        Timeouts run un-deadlined here (the deadline protected pool
        throughput, which no longer applies to a serial last chance).
        """
        if not run.failures:
            return
        lookup = {
            (
                int(getattr(tracker.item, "point_index", tracker.index)),
                int(getattr(tracker.item, "repetition", 0)),
            ): tracker
            for tracker in trackers
        }
        rescued: List[FailureRecord] = []
        for record in run.failures:
            if record.kind == "crash":
                continue
            tracker = lookup.get((record.point_index, record.repetition))
            if tracker is None or run.outcomes[tracker.index] is not None:
                continue
            try:
                outcome = fn(tracker.item)
            except KeyboardInterrupt:
                raise
            except BaseException as exc:  # stays quarantined
                if isinstance(exc, (SystemExit, GeneratorExit)):
                    raise
                record.error = error_record(exc)
                continue
            run.outcomes[tracker.index] = outcome
            if on_result is not None:
                on_result(tracker.index, outcome)
            rescued.append(record)
            run.stats["inline_rescues"] += 1
            run.stats["quarantined"] -= 1
            obs.counter_add("harness.inline_rescues")
        for record in rescued:
            run.failures.remove(record)
