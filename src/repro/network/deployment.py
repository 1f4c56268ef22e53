"""Random CRN deployments with connectivity enforcement.

Section III deploys ``N`` PUs and ``n`` SUs (plus the base station) i.i.d.
in a square of area ``A`` and *assumes* ``G_s`` is connected.  Random
placements occasionally violate that assumption, so the deployment retries
with fresh randomness and raises
:class:`~repro.errors.DisconnectedNetworkError` after a configurable number
of attempts rather than handing the simulator an impossible task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DisconnectedNetworkError
from repro.geometry.region import SquareRegion
from repro.graphs.connectivity import is_connected
from repro.network.primary import BatchedActivity, BernoulliActivity, PrimaryNetwork
from repro.network.secondary import SecondaryNetwork
from repro.network.topology import CrnTopology
from repro.rng import StreamFactory

__all__ = ["DeploymentSpec", "deploy_crn"]


@dataclass(frozen=True)
class DeploymentSpec:
    """Everything needed to place a CRN (paper defaults from Fig. 6).

    Attributes
    ----------
    area:
        Deployment area ``A`` (a square of side ``sqrt(area)``).
    num_pus / num_sus:
        ``N`` and ``n``.
    pu_power / su_power:
        ``P_p`` and ``P_s``.
    pu_radius / su_radius:
        ``R`` and ``r``.
    p_t:
        PU transmission probability per slot.
    base_station_at_center:
        Paper treats the base station as i.i.d. like the SUs; placing it at
        the region center (the default) reduces variance across repetitions
        without changing any of the compared quantities.
    max_attempts:
        Deployment retries before declaring the density too low for a
        connected ``G_s``.
    """

    area: float = 250.0 * 250.0
    num_pus: int = 400
    num_sus: int = 2000
    pu_power: float = 10.0
    su_power: float = 10.0
    pu_radius: float = 10.0
    su_radius: float = 10.0
    p_t: float = 0.3
    base_station_at_center: bool = True
    max_attempts: int = 25

    def __post_init__(self) -> None:
        if self.area <= 0:
            raise ConfigurationError(f"area must be positive, got {self.area}")
        if self.num_pus < 0:
            raise ConfigurationError(f"num_pus must be >= 0, got {self.num_pus}")
        if self.num_sus < 1:
            raise ConfigurationError(f"num_sus must be >= 1, got {self.num_sus}")
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0.0 <= self.p_t <= 1.0:
            raise ConfigurationError(f"p_t must be in [0, 1], got {self.p_t}")
        for name in ("pu_power", "su_power", "pu_radius", "su_radius"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )

    @property
    def pu_density(self) -> float:
        """PU density N/A (the paper's locally finite property)."""
        return self.num_pus / self.area

    @property
    def su_density(self) -> float:
        """SU density n/A (``1/c0`` in the paper's ``A = c0 n``)."""
        return self.num_sus / self.area


def deploy_crn(
    spec: DeploymentSpec,
    streams: StreamFactory,
    activity: "BatchedActivity | None" = None,
) -> CrnTopology:
    """Deploy a CRN per ``spec``, retrying until ``G_s`` is connected.

    Parameters
    ----------
    spec:
        Placement and radio parameters.
    streams:
        The experiment's stream factory; placement consumes the
        ``"pu-placement"`` and ``"su-placement-<attempt>"`` streams.
    activity:
        PU activity process; defaults to Bernoulli(``spec.p_t``).

    Raises
    ------
    DisconnectedNetworkError
        If no connected secondary deployment is found in
        ``spec.max_attempts`` attempts.
    """
    region = SquareRegion.from_area(spec.area)
    pu_positions = region.sample(spec.num_pus, streams.stream("pu-placement"))
    if activity is None:
        activity = BernoulliActivity(spec.p_t)
    primary = PrimaryNetwork(
        positions=pu_positions,
        power=spec.pu_power,
        radius=spec.pu_radius,
        activity=activity,
    )

    for attempt in range(spec.max_attempts):
        rng = streams.stream(f"su-placement-{attempt}")
        su_positions = region.sample(spec.num_sus, rng)
        if spec.base_station_at_center:
            base = region.center[None, :]
        else:
            base = region.sample(1, rng)
        positions = np.vstack([base, su_positions])
        secondary = SecondaryNetwork(
            positions=positions, power=spec.su_power, radius=spec.su_radius
        )
        if is_connected(secondary.graph):
            return CrnTopology(region=region, primary=primary, secondary=secondary)

    raise DisconnectedNetworkError(
        f"no connected G_s after {spec.max_attempts} attempts: n={spec.num_sus}, "
        f"area={spec.area:.0f}, r={spec.su_radius} — the SU density is likely "
        "below the connectivity threshold"
    )
