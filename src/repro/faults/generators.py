"""The stochastic fault-plan generator of chaos sweeps, fully replayable.

:func:`chaos_plan` draws from a *named* :class:`repro.rng.StreamFactory`
child stream, so a chaos repetition is determined by
``(seed, stream name, parameters)`` — rerunning it replays the identical
fault schedule, which is what makes degradation sweeps and regression
baselines meaningful.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.rng import StreamFactory

__all__ = ["chaos_plan"]


def chaos_plan(
    su_ids: Iterable[int],
    horizon_slots: int,
    intensity: float,
    streams: StreamFactory,
    stream_name: str = "fault-plan",
    drop_queue: bool = True,
    mean_downtime_slots: float = 200.0,
    sensing_fault_fraction: float = 0.25,
    blackout: bool = False,
) -> FaultPlan:
    """A mixed fault cocktail whose event count scales with ``intensity``.

    ``intensity`` is the expected fraction of SUs hit by a transient
    outage over the horizon (``0`` → empty plan, ``0.5`` → half the
    fleet blinks once).  A ``sensing_fault_fraction`` share of the outage
    count is added as stuck-busy/stuck-idle windows, and ``blackout``
    appends one short base-station blackout mid-run — the full chaos
    menu in one replayable plan.
    """
    if horizon_slots < 4:
        raise ConfigurationError(f"horizon_slots must be >= 4, got {horizon_slots}")
    if intensity < 0:
        raise ConfigurationError(f"intensity must be >= 0, got {intensity}")
    if not 0 <= sensing_fault_fraction <= 1:
        raise ConfigurationError(
            f"sensing_fault_fraction must be in [0, 1], got {sensing_fault_fraction}"
        )
    nodes = sorted(int(node) for node in su_ids)
    if not nodes:
        raise ConfigurationError("fault generators need at least one SU")
    rng = streams.stream(stream_name)
    events: List[FaultEvent] = []

    outages = min(int(round(intensity * len(nodes))), len(nodes))
    if outages:
        hit = rng.choice(nodes, size=outages, replace=False)
        for node in hit:
            down_at = int(rng.integers(1, max(horizon_slots // 2, 2)))
            downtime = max(
                int(round(float(rng.exponential(mean_downtime_slots)))), 1
            )
            events.append(
                FaultEvent.outage(
                    down_at,
                    int(node),
                    min(down_at + downtime, horizon_slots),
                    drop_queue=drop_queue,
                )
            )

    sensing = int(round(sensing_fault_fraction * outages))
    if sensing:
        victims = rng.choice(nodes, size=sensing, replace=False)
        for index, node in enumerate(victims):
            start = int(rng.integers(1, max(horizon_slots // 2, 2)))
            stop = min(start + max(horizon_slots // 8, 2), horizon_slots)
            maker = FaultEvent.stuck_busy if index % 2 == 0 else FaultEvent.stuck_idle
            events.append(maker(start, int(node), stop))

    if blackout:
        start = max(horizon_slots // 3, 1)
        events.append(
            FaultEvent.bs_blackout(start, min(start + horizon_slots // 10 + 1,
                                              horizon_slots))
        )
    return FaultPlan.from_events(events)
