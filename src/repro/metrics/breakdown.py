"""Trace-based breakdowns: where did the time go?

Operates on a :class:`~repro.sim.trace.TraceLog` captured during a run:

* :func:`packet_journey` — the slot-stamped event sequence of one packet
  (every transmission start, loss and hop until delivery);
* :func:`hop_latencies` — per-hop waiting times of one packet, the
  quantity Theorem 1 bounds.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.sim.trace import TraceEvent, TraceKind, TraceLog

__all__ = ["packet_journey", "hop_latencies"]


def packet_journey(trace: TraceLog, packet_id: int) -> List[TraceEvent]:
    """Every traced event that carries the given packet id, in order."""
    journey = [
        event for event in trace if event.packet_id == packet_id
    ]
    if not journey:
        raise ConfigurationError(f"packet {packet_id} never appears in the trace")
    return journey


def hop_latencies(trace: TraceLog, packet_id: int) -> List[int]:
    """Slots spent at each hop of one packet's journey.

    Hop latency counts from the packet's previous successful transmission
    (or slot 0 at the source) to the next one — queueing, spectrum waiting
    and contention combined.  The sum equals the packet's total delay.
    """
    journey = packet_journey(trace, packet_id)
    successes = [
        event for event in journey if event.kind is TraceKind.TX_SUCCESS
    ]
    if not successes:
        raise ConfigurationError(
            f"packet {packet_id} was never successfully transmitted"
        )
    latencies: List[int] = []
    previous_slot = 0
    for event in successes:
        latencies.append(event.slot - previous_slot + 1)
        previous_slot = event.slot + 1
    return latencies
