"""Experiment configuration with the paper's defaults and scaled variants.

The paper's Fig. 6 settings: ``A = 250 x 250``, ``alpha = 4``, ``N = 400``,
``P_p = 10``, ``R = 10``, ``eta_p = 8 dB``, ``p_t = 0.3``, ``n = 2000``,
``P_s = 10``, ``r = 10``, ``eta_s = 8 dB``, slot ``tau = 1 ms``, contention
window ``tau_c = 0.5 ms``, 10 repetitions.

A pure-Python simulator cannot benchmark the n = 2000 point, so
:meth:`ExperimentConfig.bench_scale` and :meth:`ExperimentConfig.quick_scale`
shrink the *area* while preserving the PU and SU densities (N/A and n/A),
the activity level, the powers, and the thresholds.  Density preservation
keeps the PCR, the per-node opportunity probability ``p_o``, and the local
contention structure identical to the paper's scenario, so curve shapes and
the ADDC/Coolest ordering carry over; see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from repro.errors import ConfigurationError
from repro.network.deployment import DeploymentSpec

__all__ = ["SCALES", "ExperimentConfig", "resolve_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation scenario (both algorithms share every field)."""

    area: float = 250.0 * 250.0
    num_pus: int = 400
    num_sus: int = 2000
    pu_power: float = 10.0
    su_power: float = 10.0
    pu_radius: float = 10.0
    su_radius: float = 10.0
    p_t: float = 0.3
    alpha: float = 4.0
    eta_p_db: float = 8.0
    eta_s_db: float = 8.0
    zeta_bound: str = "paper"
    blocking: str = "homogeneous"
    slot_duration_ms: float = 1.0
    contention_window_ms: float = 0.5
    repetitions: int = 10
    seed: int = 2012
    max_slots: int = 2_000_000

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigurationError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        if not 0.0 <= self.p_t < 1.0:
            raise ConfigurationError(f"p_t must be in [0, 1), got {self.p_t}")
        if self.blocking not in ("geometric", "homogeneous"):
            raise ConfigurationError(
                f"blocking must be 'geometric' or 'homogeneous', got "
                f"{self.blocking!r}"
            )

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The paper's Fig. 6 default scenario, verbatim."""
        return cls()

    @classmethod
    def bench_scale(cls) -> "ExperimentConfig":
        """Density-preserving scenario sized for benchmark runs.

        Area 60 x 60 with N and n scaled by the same factor as the area
        (x 0.0576): PU density 0.0064/unit^2 and SU density 0.032/unit^2
        match the paper exactly.
        """
        return cls(
            area=60.0 * 60.0,
            num_pus=23,
            num_sus=115,
            repetitions=3,
            max_slots=400_000,
        )

    @classmethod
    def quick_scale(cls) -> "ExperimentConfig":
        """Smaller still, for unit/integration tests (seconds per run)."""
        return cls(
            area=50.0 * 50.0,
            num_pus=16,
            num_sus=80,
            repetitions=2,
            max_slots=200_000,
        )

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def deployment_spec(self) -> DeploymentSpec:
        """The placement spec this config induces."""
        return DeploymentSpec(
            area=self.area,
            num_pus=self.num_pus,
            num_sus=self.num_sus,
            pu_power=self.pu_power,
            su_power=self.su_power,
            pu_radius=self.pu_radius,
            su_radius=self.su_radius,
            p_t=self.p_t,
        )

    @property
    def pu_density(self) -> float:
        """PU density N/A."""
        return self.num_pus / self.area

    @property
    def su_density(self) -> float:
        """SU density n/A."""
        return self.num_sus / self.area


#: The named scenario sizes every front end accepts (``--scale``).
SCALES = {
    "quick": ExperimentConfig.quick_scale,
    "bench": ExperimentConfig.bench_scale,
    "paper": ExperimentConfig.paper_scale,
}


def resolve_config(
    scale: str = "quick",
    seed: int = 2012,
    blocking: str = "homogeneous",
    repetitions: Optional[int] = None,
    p_t: Optional[float] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> ExperimentConfig:
    """The config a scale name plus the common overrides pin.

    The one resolution shared by the CLI commands and
    :meth:`repro.service.jobs.JobSpec.config`, so a command line and the
    job spec built from it always name the same experiment.  ``None``
    keeps the scale's default; ``overrides`` are applied last.
    """
    fields = {"seed": seed, "blocking": blocking}
    if repetitions is not None:
        fields["repetitions"] = repetitions
    if p_t is not None:
        fields["p_t"] = p_t
    fields.update(overrides or {})
    return SCALES[scale]().with_overrides(**fields)
