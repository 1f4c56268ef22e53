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

:func:`sensing_at_pcr` is every simulated run's starting point: Eq. 16's
PCR for a deployed topology, the map at that range and, under mean-field
blocking, Lemma 7's ``p_o``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.network.topology import CrnTopology

if TYPE_CHECKING:
    from repro.core.pcr import PcrResult

__all__ = ["CarrierSenseMap", "sensing_at_pcr"]


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

    @property
    def pu_count_dtype(self) -> np.dtype:
        """The narrowest unsigned integer that holds the PU count.

        :meth:`pu_incidence` and every busy count use it, so
        ``incidence @ states.astype(incidence.dtype)`` counts each node's
        active in-range PUs without wrapping (in ``uint8``, 256 active PUs
        would count as 0 and read as a free spectrum).
        """
        return np.min_scalar_type(len(self.pu_hearers))

    def pu_incidence(self) -> np.ndarray:
        """Dense ``(node, PU)`` matrix with a 1 where the PU blocks the
        node, in :attr:`pu_count_dtype`."""
        incidence = np.zeros(
            (len(self.pus_heard_by), len(self.pu_hearers)), dtype=self.pu_count_dtype
        )
        for pu_index, nodes in enumerate(self.pu_hearers):
            incidence[nodes, pu_index] = 1
        return incidence

    def pu_count_in_range(self, node: int) -> int:
        """Number of PUs whose transmissions block secondary node ``node``."""
        return len(self.pus_heard_by[node])


def sensing_at_pcr(
    topology: CrnTopology,
    *,
    alpha: float,
    eta_p_db: float,
    eta_s_db: float,
    zeta_bound: str = "paper",
    blocking: str = "geometric",
    p_t: Optional[float] = None,
    num_channels: int = 1,
    su_csma_range: Optional[float] = None,
) -> Tuple["PcrResult", CarrierSenseMap, Optional[float]]:
    """The PCR of ``topology``, its carrier-sense map and Lemma 7's ``p_o``.

    The PCR is Eq. 16 over the deployed powers and radii; the map protects
    PUs at the PCR and senses SUs at ``su_csma_range`` (default: the PCR,
    ADDC's choice).  ``p_o`` is ``None`` unless ``blocking="homogeneous"``;
    it uses ``p_t`` (default: the activity's stationary probability) and,
    with ``num_channels`` channels, the mean ``N / C`` PUs per channel.
    """
    # Imported here: repro.core's package imports reach back into this
    # module.
    from repro.core.analysis import opportunity_probability
    from repro.core.pcr import PcrParameters, compute_pcr

    pcr = compute_pcr(
        PcrParameters(
            alpha=alpha,
            pu_power=topology.primary.power,
            su_power=topology.secondary.power,
            pu_radius=topology.primary.radius,
            su_radius=topology.secondary.radius,
            eta_p_db=eta_p_db,
            eta_s_db=eta_s_db,
            zeta_bound=zeta_bound,
        )
    )
    sense_map = CarrierSenseMap(topology, pcr.pcr, su_csma_range)
    p_o = None
    if blocking == "homogeneous":
        if p_t is None:
            p_t = topology.primary.activity.stationary_probability
        p_o = opportunity_probability(
            p_t,
            pcr.kappa,
            topology.secondary.radius,
            topology.primary.num_pus / num_channels,
            topology.region.area,
        )
    return pcr, sense_map, p_o
