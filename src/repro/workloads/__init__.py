"""Workload generation: periodic snapshots (continuous collection)."""

from repro.workloads.periodic import periodic_snapshot_workload

__all__ = ["periodic_snapshot_workload"]
