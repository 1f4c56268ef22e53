"""The combined CRN topology: both networks over one region.

A :class:`CrnTopology` bundles a :class:`~repro.network.primary.PrimaryNetwork`
and a :class:`~repro.network.secondary.SecondaryNetwork` deployed in the same
region, and precomputes the incidence structures the simulator needs:

* for every PU, the SUs whose carrier sensing (at range PCR) hears it, and
* for every SU, the SUs within its PCR (the SU contention neighborhood).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError
from repro.geometry.region import SquareRegion
from repro.geometry.spatial_index import GridIndex
from repro.network.primary import PrimaryNetwork
from repro.network.secondary import SecondaryNetwork

__all__ = ["CrnTopology"]


class CrnTopology:
    """Primary plus secondary network over a shared region."""

    def __init__(
        self,
        region: SquareRegion,
        primary: PrimaryNetwork,
        secondary: SecondaryNetwork,
    ) -> None:
        self.region = region
        self.primary = primary
        self.secondary = secondary
        self._su_index: Optional[GridIndex] = None

    @property
    def su_index(self) -> GridIndex:
        """Spatial index over the secondary node positions (lazy, cached)."""
        if self._su_index is None:
            self._su_index = GridIndex(
                self.secondary.positions, cell_size=self.secondary.radius
            )
        return self._su_index

    def pu_to_su_hearers(self, sensing_range: float) -> List[List[int]]:
        """For every PU, the secondary nodes within ``sensing_range`` of it.

        These are the nodes whose carrier sensing is blocked while that PU
        transmits.
        """
        if sensing_range <= 0:
            raise ConfigurationError(
                f"sensing_range must be positive, got {sensing_range}"
            )
        return self.su_index.cross_neighbor_lists(
            self.primary.positions, sensing_range
        )

    def su_contention_neighbors(self, sensing_range: float) -> List[List[int]]:
        """For every secondary node, other secondary nodes within ``sensing_range``.

        This is the mutual-sensing (contention) neighborhood of Algorithm 1;
        it always contains the radius-``r`` graph neighbors because the PCR
        satisfies ``PCR >= r``.
        """
        if sensing_range <= 0:
            raise ConfigurationError(
                f"sensing_range must be positive, got {sensing_range}"
            )
        return self.su_index.neighbor_lists(sensing_range)

    def __repr__(self) -> str:
        return (
            f"CrnTopology(region={self.region!r}, primary={self.primary!r}, "
            f"secondary={self.secondary!r})"
        )
