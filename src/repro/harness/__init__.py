"""``repro.harness`` — the crash-safe experiment harness.

Three layers (see docs/ROBUSTNESS.md):

* :mod:`repro.harness.checkpoint` — append-only ``checkpoint/v1``
  journals: every completed ``(point, repetition)`` is fsynced to disk
  before it is acknowledged, loading is read-only, a torn tail is
  truncated when the journal is reopened for appending, and replay is
  bit-exact.
* :mod:`repro.harness.supervisor` — one scheduling loop for serial
  (in-parent) and pooled runs: per-item deadlines, bounded retries with
  deterministic exponential backoff, ``BrokenProcessPool`` recovery with
  exact crash attribution, and quarantine of poison items into
  structured :class:`FailureRecord`\\ s.
* :mod:`repro.harness.sweep` — :func:`run_checkpointed_sweep`, gluing
  both into the one path every sweep (fig6, compare, chaos, service
  jobs) runs through, so a killed-and-resumed sweep is byte-identical to
  an uninterrupted one.

The harness consumes no RNG streams and adds nothing to artifacts of a
clean run: determinism and crash-safety are independent guarantees.
"""

from __future__ import annotations

from repro.harness.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointState,
    CheckpointWriter,
    inspect_checkpoint,
    load_checkpoint,
    measurement_from_dict,
    measurement_to_dict,
    verify_checkpoint,
)
from repro.harness.supervisor import (
    FAIL_FAST,
    FailureRecord,
    ItemTracker,
    RetryPolicy,
    SupervisedRun,
    WorkerSupervisor,
)
from repro.harness.sweep import (
    SweepRunResult,
    run_checkpointed_sweep,
    sweep_fingerprint,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointState",
    "CheckpointWriter",
    "inspect_checkpoint",
    "load_checkpoint",
    "measurement_from_dict",
    "measurement_to_dict",
    "verify_checkpoint",
    "FAIL_FAST",
    "FailureRecord",
    "ItemTracker",
    "RetryPolicy",
    "SupervisedRun",
    "WorkerSupervisor",
    "SweepRunResult",
    "run_checkpointed_sweep",
    "sweep_fingerprint",
]
