"""Supervised, optionally journalled sweep execution — the one sweep path.

:func:`run_checkpointed_sweep` is how every repetition runs: the plain
drivers (:func:`~repro.experiments.runner.run_comparison_point`,
:func:`~repro.experiments.fig6.run_fig6_sweep`, which take no journal,
policy or partial options and run fail-fast) and the jobs of
:func:`repro.service.jobs.run_job` (fig6, compare and chaos; the CLI and
the daemon) all call it.  It fans ``(point, repetition)`` work items
through a :class:`~repro.harness.supervisor.WorkerSupervisor` — whose one
scheduling loop runs them in the parent for ``workers=1`` and on a warm
``spawn`` pool otherwise — and, given a ``checkpoint_path``, journals
every completed repetition into a ``checkpoint/v1`` file, so a sweep
killed at any instant — ``SIGKILL`` included — resumes from its last
durable record and finishes **byte-identical** to an uninterrupted run.

How byte-identity survives a crash
----------------------------------
* Each repetition is a pure function of ``(config, repetition)`` (the RNG
  lineage re-derives from ``StreamFactory(seed).spawn(f"rep-{i}")``), so
  a journalled measurement equals the one a fresh run would compute.
* Measurements round-trip through the journal via ``repr`` floats
  (Python's float round-trip guarantee), so replayed values are bit-equal.
* Points are assembled with the same
  :func:`~repro.experiments.runner.assemble_comparison_point` fold, over
  measurements in repetition order, whether they came from the journal or
  a worker — identical float addition order, identical statistics.
* Worker metric snapshots are journalled too and merged in **submission
  order** during assembly, so an instrumented resumed run reproduces the
  uninterrupted run's registry (modulo the ``harness.*`` counters, which
  deliberately tell the resilience story; see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import repro.obs as obs
import repro.perf.executor as perf_executor
from repro.errors import CheckpointError, ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ComparisonPoint,
    assemble_comparison_point,
)
from repro.harness.checkpoint import (
    CheckpointState,
    CheckpointWriter,
    load_checkpoint,
)
from repro.harness.supervisor import (
    FailureRecord,
    RetryPolicy,
    WorkerSupervisor,
)
from repro.obs.manifest import config_fingerprint
from repro.perf.executor import RepetitionOutcome, SweepWorkItem

if TYPE_CHECKING:
    from repro.faults.sweep import ChaosOptions

__all__ = [
    "SweepRunResult",
    "sweep_fingerprint",
    "run_checkpointed_sweep",
]


def sweep_fingerprint(
    name: str,
    points: Sequence[Tuple[float, ExperimentConfig]],
    repetitions_per_point: Sequence[int],
    chaos: Optional["ChaosOptions"] = None,
) -> str:
    """BLAKE2b fingerprint of the exact sweep a journal protects.

    Covers the sweep name, every point's x-value and full configuration,
    the repetition counts and, for chaos sweeps, the fault options — and
    deliberately **not** the worker count or retry policy: those change
    wall-clock behaviour, never results, so a sweep may be resumed with
    different parallelism than it started.
    """
    payload: Dict = {
        "name": name,
        "points": [
            {
                "x": float(x),
                "config": dataclasses.asdict(config),
                "repetitions": int(reps),
            }
            for (x, config), reps in zip(points, repetitions_per_point)
        ],
    }
    if chaos is not None:
        payload["chaos"] = dataclasses.asdict(chaos)
    return config_fingerprint(payload)


@dataclass
class SweepRunResult:
    """What a sweep hands back — and the only result a job has.

    ``points`` holds the assembled ``(x, ComparisonPoint)`` pairs in sweep
    order, omitting points that ended with **zero** usable repetitions
    (those appear in ``dropped_points``); chaos sweeps leave it empty and
    are read from ``outcomes`` (:mod:`repro.faults.sweep`).  ``status`` is
    ``"complete"`` when every scheduled item produced a measurement, else
    ``"partial"``.  :func:`repro.service.jobs.run_job` returns it as is;
    the job's artifact, manifest ``extra`` block and trace are written
    from it plus the job's spec.
    """

    name: str
    points: List[Tuple[float, ComparisonPoint]]
    #: Every surviving repetition's outcome, in submission order.
    outcomes: List[RepetitionOutcome] = field(default_factory=list)
    status: str = "complete"
    failures: List[FailureRecord] = field(default_factory=list)
    #: Indices (into the sweep's point list) that lost *all* repetitions.
    dropped_points: List[int] = field(default_factory=list)
    #: Supervisor resilience stats (retries, pool_rebuilds, ...).
    stats: Dict[str, int] = field(default_factory=dict)
    #: Items replayed from the journal instead of re-run.
    cached_items: int = 0
    resumed: bool = False
    checkpoint_path: Optional[Path] = None
    config_hash: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def harness_summary(self) -> Dict:
        """The ``extra["harness"]`` block for the run manifest.

        Excluded (together with the ``harness.*`` counters) from the
        bit-identity comparison between resumed and uninterrupted runs:
        it is the audit trail of *how* the result was obtained, not part
        of the result.
        """
        return {
            "status": self.status,
            "stats": dict(self.stats),
            "failures": [record.to_dict() for record in self.failures],
            "dropped_points": list(self.dropped_points),
            "cached_items": self.cached_items,
            "resumed": self.resumed,
            "checkpoint": (
                str(self.checkpoint_path)
                if self.checkpoint_path is not None
                else None
            ),
            "config_hash": self.config_hash,
        }


def _open_journal(
    checkpoint_path: Path,
    name: str,
    fingerprint: str,
    total_items: int,
    resume: bool,
) -> Tuple[Optional[CheckpointState], CheckpointWriter]:
    """Create or resume the journal; returns ``(prior_state, writer)``."""
    if resume and checkpoint_path.exists():
        state = load_checkpoint(checkpoint_path)
        if state.config_hash != fingerprint:
            raise CheckpointError(
                f"checkpoint journal {checkpoint_path} was written for a "
                f"different sweep (config_hash {state.config_hash!r}, this "
                f"sweep is {fingerprint!r}); delete it or point --checkpoint "
                "elsewhere"
            )
        obs.counter_add("harness.checkpoint.hits", len(state.entries))
        return state, CheckpointWriter.append_to(state)
    # Fresh journal: an existing file without resume=True is refused by
    # CheckpointWriter.create (clobbering a journal loses durable work).
    writer = CheckpointWriter.create(
        checkpoint_path, name, fingerprint, total_items
    )
    return None, writer


def run_checkpointed_sweep(
    name: str,
    points: Sequence[Tuple[float, ExperimentConfig]],
    repetitions: Optional[int] = None,
    on_incomplete: str = "skip",
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    workers: int = 1,
    policy: Optional[RetryPolicy] = None,
    progress=None,
    pool=None,
    chaos: Optional["ChaosOptions"] = None,
) -> SweepRunResult:
    """Run a sweep's repetitions under supervision, optionally journalled.

    Parameters mirror :func:`~repro.experiments.fig6.run_fig6_sweep` plus
    the harness knobs: ``checkpoint_path`` names the ``checkpoint/v1``
    journal (``None`` supervises without durability); ``resume=True``
    replays a compatible existing journal — config-fingerprint checked,
    a torn tail truncated only once the journal is reopened for
    appending — and re-runs only the missing items; ``policy`` sets
    deadlines, retry budgets and backoff
    (:class:`~repro.harness.supervisor.RetryPolicy`).
    ``pool`` injects a caller-owned
    :class:`~repro.perf.pool.WarmWorkerPool` whose processes stay warm
    after the run (the daemon's cross-job pool).  ``chaos`` turns every
    item into a fault-injection repetition (ADDC only); its outcomes are
    returned in ``outcomes`` and no comparison points are assembled.

    ``progress`` is any object with a ``tick()`` method (the daemon
    passes one that streams ``progress`` events); it ticks as each
    repetition completes (journal-replayed repetitions tick when the
    journal loads).  A ``KeyboardInterrupt``
    mid-sweep cancels the pending work, flushes the journal, and
    re-raises — completed repetitions stay durable, so the same call with
    ``resume=True`` picks up where Ctrl-C struck.  Items that exhaust
    their retry budget are quarantined, the surviving repetitions are
    assembled anyway, and the result is flagged ``status: "partial"``
    rather than aborting the sweep.

    With a recorder installed (:func:`obs.enabled`), every fresh outcome
    carries its repetition's span profile and the journal keeps it for
    replays; :func:`repro.obs.tracing.merge_shards` builds the job's
    ``trace/v2`` tree from those profiles.
    """
    # Validate before any work runs or any journal is created.
    if on_incomplete not in ("raise", "skip"):
        raise ConfigurationError(
            f"on_incomplete must be 'raise' or 'skip', got {on_incomplete!r}"
        )
    points = list(points)
    reps_of = [
        repetitions if repetitions is not None else config.repetitions
        for _, config in points
    ]
    collect = obs.enabled()
    items = [
        SweepWorkItem(
            point_index=index,
            repetition=rep,
            config=config,
            collect_metrics=collect,
            chaos=chaos,
        )
        for index, (_, config) in enumerate(points)
        for rep in range(reps_of[index])
    ]
    fingerprint = sweep_fingerprint(name, points, reps_of, chaos)

    cached: Dict[Tuple[int, int], RepetitionOutcome] = {}
    writer: Optional[CheckpointWriter] = None
    resumed = False
    if checkpoint_path is not None:
        checkpoint_path = Path(checkpoint_path)
        state, writer = _open_journal(
            checkpoint_path, name, fingerprint, len(items), resume
        )
        if state is not None:
            cached = dict(state.entries)
            resumed = True
        else:
            obs.counter_add("harness.checkpoint.misses")
    if progress is not None:
        for _ in cached:
            progress.tick()

    todo = [
        item
        for item in items
        if (item.point_index, item.repetition) not in cached
    ]

    def journal_result(index: int, outcome: RepetitionOutcome) -> None:
        if writer is not None:
            writer.append_measurement(
                outcome.point_index,
                outcome.repetition,
                outcome.measurement,
                metrics=outcome.metrics,
                profile=outcome.profile,
            )
        if progress is not None:
            progress.tick()

    supervisor = WorkerSupervisor(workers=workers, policy=policy, pool=pool)
    try:
        # Looked up at call time, so the item runner can be substituted.
        run = supervisor.run(
            perf_executor.execute_work_item, todo, on_result=journal_result
        )
        if writer is not None:
            for record in run.failures:
                writer.append_failure(record.to_dict())
    finally:
        # KeyboardInterrupt lands here too: acknowledged records are
        # already fsynced, this just releases the handle cleanly.
        if writer is not None:
            writer.close()
    fresh = {
        (item.point_index, item.repetition): outcome
        for item, outcome in zip(todo, run.outcomes)
        if outcome is not None
    }

    # ---- assemble, strictly in submission order ----------------------- #
    results: List[Tuple[float, ComparisonPoint]] = []
    outcomes: List[RepetitionOutcome] = []
    dropped: List[int] = []
    for index, (x_value, config) in enumerate(points):
        measurements = []
        for rep in range(reps_of[index]):
            key = (index, rep)
            outcome = cached[key] if key in cached else fresh.get(key)
            if outcome is None:
                continue  # quarantined: recorded in run.failures
            if outcome.metrics is not None:
                obs.merge_snapshot(outcome.metrics, outcome.profile)
            obs.counter_add("sweep.repetitions")
            outcomes.append(outcome)
            measurements.append(outcome.measurement)
        if not measurements:
            dropped.append(index)
        elif chaos is None:
            results.append(
                (
                    x_value,
                    assemble_comparison_point(
                        config, measurements, on_incomplete
                    ),
                )
            )

    status = "complete" if not run.failures and not dropped else "partial"
    return SweepRunResult(
        name=name,
        points=results,
        outcomes=outcomes,
        status=status,
        failures=run.failures,
        dropped_points=dropped,
        stats=run.stats,
        cached_items=len(cached),
        resumed=resumed,
        checkpoint_path=checkpoint_path,
        config_hash=fingerprint,
    )
