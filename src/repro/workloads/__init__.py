"""Workload generation: one-shot and periodic snapshots."""

from repro.workloads.snapshot import snapshot_workload, partial_snapshot_workload
from repro.workloads.periodic import periodic_snapshot_workload

__all__ = [
    "snapshot_workload",
    "partial_snapshot_workload",
    "periodic_snapshot_workload",
]
