"""Per-round metrics for continuous (periodic) collection runs."""

from __future__ import annotations

from typing import Dict, Sequence

from repro.errors import ConfigurationError
from repro.sim.results import PacketRecord

__all__ = ["per_round_delays", "sustainable_period_estimate"]


def per_round_delays(deliveries: Sequence[PacketRecord]) -> Dict[int, int]:
    """Completion delay of each snapshot round, keyed by its birth slot.

    A round's delay is the number of slots from its birth until its last
    packet reaches the base station (inclusive) — the same definition the
    paper uses for the single-snapshot task.
    """
    if not deliveries:
        raise ConfigurationError("need at least one delivery")
    last_delivery: Dict[int, int] = {}
    for record in deliveries:
        current = last_delivery.get(record.birth_slot)
        if current is None or record.delivered_slot > current:
            last_delivery[record.birth_slot] = record.delivered_slot
    return {
        birth: delivered - birth + 1 for birth, delivered in last_delivery.items()
    }


def sustainable_period_estimate(deliveries: Sequence[PacketRecord]) -> float:
    """Estimate of the smallest sustainable snapshot period, in slots.

    In steady state the network can absorb one snapshot per *service time*
    of a full round; the max per-round delay over the later half of the run
    (ignoring warm-up) estimates it.  A period below this makes queues grow
    without bound.
    """
    delays = per_round_delays(deliveries)
    births = sorted(delays)
    steady = births[len(births) // 2 :]
    return float(max(delays[birth] for birth in steady))
