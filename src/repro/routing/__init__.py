"""Routing baselines.

The paper compares ADDC against *Coolest* (Huang et al., ICDCS 2011 [17]),
a spectrum-mobility-aware routing metric for cognitive ad hoc networks,
adapted to data collection the way the paper describes: every SU produces
one packet and forwards it along the path with the most balanced / lowest
PU spectrum utilization ("temperature").
"""

from repro.routing.temperature import node_temperatures_at_range
from repro.routing.coolest import CoolestOutcome, CoolestPolicy, run_coolest_collection
from repro.routing.unicast import UnicastPolicy, run_unicast

__all__ = [
    "node_temperatures_at_range",
    "CoolestOutcome",
    "CoolestPolicy",
    "run_coolest_collection",
    "UnicastPolicy",
    "run_unicast",
]
