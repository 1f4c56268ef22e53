"""Spectrum-temperature metrics (the Coolest routing metric family [17]).

The *spectrum temperature* of a node measures how intensively PUs occupy
the spectrum around it.  With the paper's slotted Bernoulli PU model, the
natural temperature of node ``i`` is the probability that some PU inside
its sensing range transmits during a slot:

.. math::  T_i = 1 - (1 - p_t)^{m_i},

where ``m_i`` counts PUs within the node's sensing range — exactly the
complement of the node's spectrum-opportunity probability.  On top of the
node temperatures, [17] defines accumulated, highest and mixed path
metrics; the Coolest baseline routes by the **mixed** one, the sum of node
temperatures along the path with a superlinear penalty on hot nodes,
concretized here as ``sum T_i (1 + T_i)`` (this paper does not restate
[17]'s exact mixing formula; any superlinear blend preserves the behaviour
the comparison relies on — paths detour around hot regions).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["node_temperatures_at_range", "mixed_node_weights"]


def node_temperatures_at_range(topology, p_t: float, sensing_range: float) -> np.ndarray:
    """Temperatures with ``m_i`` counted at an explicit sensing range.

    Coolest [17] predates the PCR analysis: its nodes estimate spectrum
    utilization from their own radios, i.e. at their transmission radius
    ``r``, not at the PCR.  This is the range the baseline uses.
    """
    if not 0.0 <= p_t <= 1.0:
        raise ConfigurationError(f"p_t must be in [0, 1], got {p_t}")
    if sensing_range <= 0:
        raise ConfigurationError(
            f"sensing_range must be positive, got {sensing_range}"
        )
    counts_lists = topology.su_index.cross_neighbor_lists(
        topology.primary.positions, sensing_range
    )
    counts = np.zeros(topology.secondary.num_nodes)
    for pu_index, nodes in enumerate(counts_lists):
        for node in nodes:
            counts[node] += 1.0
    return 1.0 - (1.0 - p_t) ** counts


def mixed_node_weights(temperatures: Sequence[float]) -> List[float]:
    """Additive per-node weights whose path sum is the mixed metric."""
    return [float(t) * (1.0 + float(t)) for t in temperatures]
