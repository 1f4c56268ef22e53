"""Carrier-sensing incidence maps.

Two distinct ranges govern an SU's sensing (they coincide for ADDC):

* the **PU protection range** — the distance at which PU activity blocks an
  SU and forces spectrum handoff.  Protecting PUs is the regulatory premise
  of the whole CRN model (Section I: an SU "has to immediately handoff" when
  a PU comes back), so *every* policy — ADDC and baselines alike — defers to
  PUs at this range, which the paper sizes at the PCR ``kappa * r``.
* the **SU CSMA range** — the distance at which SUs hear each other's
  transmissions and freeze their backoff.  ADDC sets it to the PCR (line 1
  of Algorithm 1), which is what makes concurrent SU transmissions
  provably interference-free (Lemma 3).  A conventional CSMA baseline
  senses at its transmission radius ``r`` and therefore suffers
  hidden-terminal collisions, which the engine resolves with physical SIR
  checks.

:class:`CarrierSenseMap` precomputes the static incidence lists for both
ranges:

* ``pu_hearers[k]`` — secondary nodes blocked while PU ``k`` transmits,
* ``su_neighbors[i]`` — secondary nodes that hear secondary node ``i``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.network.topology import CrnTopology

__all__ = ["CarrierSenseMap"]


class CarrierSenseMap:
    """Static who-hears-whom structure.

    Parameters
    ----------
    topology:
        The deployed CRN.
    pu_protection_range:
        Range at which active PUs block secondary transmissions (the PCR).
    su_csma_range:
        Range of SU-to-SU carrier sensing; defaults to the protection range
        (ADDC's choice).  Must be at least the SU transmission radius.
    """

    def __init__(
        self,
        topology: CrnTopology,
        pu_protection_range: float,
        su_csma_range: Optional[float] = None,
    ) -> None:
        if pu_protection_range <= 0:
            raise ConfigurationError(
                f"pu_protection_range must be positive, got {pu_protection_range}"
            )
        if su_csma_range is None:
            su_csma_range = pu_protection_range
        if su_csma_range < topology.secondary.radius:
            raise ConfigurationError(
                f"SU CSMA range {su_csma_range} is below the SU transmission "
                f"radius {topology.secondary.radius}; a node must at least "
                "hear its own receiver's neighborhood"
            )
        self.pu_protection_range = float(pu_protection_range)
        self.su_csma_range = float(su_csma_range)
        self.pu_hearers: List[List[int]] = topology.pu_to_su_hearers(
            pu_protection_range
        )
        self.su_neighbors: List[List[int]] = topology.su_contention_neighbors(
            su_csma_range
        )
        self.pus_heard_by: List[List[int]] = self._invert(
            self.pu_hearers, topology.secondary.num_nodes
        )

    # Backwards-compatible alias: the ADDC literature calls the single
    # range "the sensing range".
    @property
    def sensing_range(self) -> float:
        """The PU protection range (the PCR for ADDC)."""
        return self.pu_protection_range

    @staticmethod
    def _invert(lists: List[List[int]], num_targets: int) -> List[List[int]]:
        inverted: List[List[int]] = [[] for _ in range(num_targets)]
        for source, targets in enumerate(lists):
            for target in targets:
                inverted[target].append(source)
        return inverted

    def pu_incidence(self) -> np.ndarray:
        """Dense ``(node, PU)`` matrix with a 1 where the PU blocks the node.

        Its dtype is the narrowest unsigned integer that holds the PU count,
        so ``incidence @ states.astype(incidence.dtype)`` counts each node's
        active in-range PUs without wrapping (in ``uint8``, 256 active PUs
        would count as 0 and read as a free spectrum).
        """
        num_pus = len(self.pu_hearers)
        incidence = np.zeros(
            (len(self.pus_heard_by), num_pus), dtype=np.min_scalar_type(num_pus)
        )
        for pu_index, nodes in enumerate(self.pu_hearers):
            incidence[nodes, pu_index] = 1
        return incidence

    def pu_count_in_range(self, node: int) -> int:
        """Number of PUs whose transmissions block secondary node ``node``."""
        return len(self.pus_heard_by[node])
