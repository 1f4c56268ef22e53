"""Deterministic fault injection and resilience scenarios.

``repro.faults`` scripts adversity against a running collection: crash-stop
departures, *transient* node outages with scheduled recovery, stuck
spectrum detectors, per-link path-loss degradation, and base-station
blackout windows.  Plans are plain data (:class:`FaultPlan`), generated
either by hand or by the MTBF/MTTR-style generators, and are consumed by
:class:`repro.sim.engine.SlottedEngine` via its ``fault_plan`` parameter.
Resilience metrics over the outcome live in
:mod:`repro.metrics.resilience`.
"""

from repro.faults.generators import chaos_plan, crash_plan, mtbf_outage_plan
from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "ChaosOptions",
    "ChaosSweepResult",
    "chaos_plan",
    "crash_plan",
    "mtbf_outage_plan",
    "save_chaos_run",
]

# The chaos-sweep layer sits *above* the simulator (it drives collections
# through the crash-safe harness), while this package is also imported
# *by* the simulator for the fault-plan data model — so the sweep names
# load lazily (PEP 562) to keep the import graph acyclic.
_SWEEP_EXPORTS = {
    "ChaosOptions",
    "ChaosSweepResult",
    "save_chaos_run",
}


def __getattr__(name):
    if name in _SWEEP_EXPORTS:
        from repro.faults import sweep as _sweep

        return getattr(_sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
