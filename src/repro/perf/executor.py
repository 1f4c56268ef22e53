"""The one repetition work item and its worker entry point.

The sweep drivers repeat every scenario over independent deployments
("each group of simulations is repeated for 10 times and the results are
the average values"), and repetitions share no state: each one derives
its whole RNG lineage from ``StreamFactory(config.seed).spawn(f"rep-{i}")``
(``chaos-rep-{i}`` for fault-injection repetitions).  That makes
(sweep point × repetition) the natural unit of work — a worker process
can re-derive the exact same streams from nothing but the picklable
:class:`SweepWorkItem`, so fanning out changes wall-clock and nothing
else.

:func:`repro.harness.run_checkpointed_sweep` is the only driver: it
builds the items, runs them through the
:class:`~repro.harness.supervisor.WorkerSupervisor` (one scheduling loop;
the items run in the parent for ``workers=1``, on a warm ``spawn`` pool
otherwise), journals each :class:`RepetitionOutcome`, and assembles the
results.

Determinism contract
--------------------
* Workers are started with the ``spawn`` method (fresh interpreters; no
  fork-time RNG or import-state inheritance).
* Work items are plain picklable data; :func:`execute_work_item` is a
  **top-level module function** so it pickles under ``spawn`` (a lambda
  or nested worker fails
  ``tests/test_perf.py::TestParallelDeterminism::test_point_results_identical_workers_2``).
* Results are gathered in **submission order**, never completion order,
  and metric snapshots are merged in that same order — the parent-side
  registry is reproducible even though worker finish times are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import repro.obs as obs
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    RepetitionMeasurement,
    run_comparison_repetition,
)

if TYPE_CHECKING:
    from repro.faults.sweep import ChaosOptions

__all__ = [
    "SweepWorkItem",
    "RepetitionOutcome",
    "execute_work_item",
]


@dataclass(frozen=True)
class SweepWorkItem:
    """One (sweep point × repetition) unit of work, fully picklable."""

    point_index: int
    repetition: int
    config: ExperimentConfig
    #: When true the worker installs a fresh :class:`~repro.obs.
    #: MetricsRecorder` and ships its snapshot/profile back for the
    #: parent to merge (deterministically, in submission order).
    collect_metrics: bool = False
    #: Fault cocktail for a chaos repetition (ADDC under injected
    #: faults); ``None`` runs the ADDC-vs-Coolest comparison.
    chaos: Optional["ChaosOptions"] = None


@dataclass
class RepetitionOutcome:
    """What a worker sends back for one repetition of one sweep point.

    ``metrics`` is the worker's recorder snapshot when metrics were
    collected; a chaos repetition always carries its per-repetition
    resilience record under ``metrics["chaos"]``.  ``profile`` is the
    worker's span profile, from which the parent builds the repetition's
    ``trace/v2`` subtree.
    """

    point_index: int
    repetition: int
    measurement: RepetitionMeasurement
    metrics: Optional[Dict] = None
    profile: Optional[Dict] = None


def _run_repetition(item: SweepWorkItem):
    """``(measurement, chaos record or None)`` for one item."""
    if item.chaos is None:
        return run_comparison_repetition(item.config, item.repetition), None
    from repro.faults.sweep import run_chaos_repetition

    return run_chaos_repetition(item.config, item.chaos, item.repetition)


def execute_work_item(item: SweepWorkItem) -> RepetitionOutcome:
    """Run one work item (the worker entry point).

    Top-level by design so it is picklable under the ``spawn`` start
    method; the ``workers=2`` determinism tests in ``tests/test_perf.py``
    fail if it is not.  Also runs in the parent when ``workers=1`` — the
    serial and parallel paths execute the same code.
    """
    metrics: Optional[Dict] = None
    profile: Optional[Dict] = None
    if item.collect_metrics:
        recorder = obs.MetricsRecorder()
        with obs.use_recorder(recorder):
            measurement, record = _run_repetition(item)
        metrics = recorder.snapshot()
        profile = recorder.profile()
    else:
        measurement, record = _run_repetition(item)
    if record is not None:
        metrics = dict(metrics or {}, chaos=record)
    return RepetitionOutcome(
        point_index=item.point_index,
        repetition=item.repetition,
        measurement=measurement,
        metrics=metrics,
        profile=profile,
    )
