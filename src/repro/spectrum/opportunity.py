"""Per-node spectrum-opportunity probabilities.

Lemma 7 works with the *expected* number of PUs inside a PCR disk,
``pi (kappa r)^2 N / (c0 n)``.  For a concrete deployment the exact per-node
probability is ``(1 - p_t)^{m_i}`` where ``m_i`` counts the PUs actually
within the node's PCR; these helpers compute that, which the tests compare
against both the analytic formula and empirical slot statistics.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.spectrum.sensing import CarrierSenseMap

__all__ = [
    "per_node_opportunity_probability",
    "mean_opportunity_probability",
]


def per_node_opportunity_probability(
    sense_map: CarrierSenseMap, p_t: float
) -> np.ndarray:
    """``(1 - p_t)^{m_i}`` for every secondary node ``i``.

    ``m_i`` is the number of PUs within the node's sensing range;  with
    i.i.d. Bernoulli PU activity this is the exact probability that node
    ``i`` sees a PU-free slot.
    """
    if not 0.0 <= p_t <= 1.0:
        raise ConfigurationError(f"p_t must be in [0, 1], got {p_t}")
    counts = np.array(
        [len(pus) for pus in sense_map.pus_heard_by], dtype=float
    )
    return (1.0 - p_t) ** counts


def mean_opportunity_probability(sense_map: CarrierSenseMap, p_t: float) -> float:
    """Average of the per-node opportunity probabilities over all nodes."""
    return float(np.mean(per_node_opportunity_probability(sense_map, p_t)))
