"""Analytic counterparts of the Figure 6 sweeps.

Theorem 2 gives a closed-form delay bound; evaluating it along each
Figure 6 sweep yields the *theoretical* curve whose shape the simulated
one must follow (same monotone direction, same ordering of effects).
These are pure computations — no simulation — so they evaluate instantly
at the paper's full scale.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List

from repro.core.analysis import (
    opportunity_probability,
    theorem2_delay_bound_slots,
)
from repro.core.packing import lemma6_delta_bound
from repro.core.pcr import PcrParameters, compute_pcr
from repro.errors import ConfigurationError, PcrDomainError
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig6 import FIG6_SWEEPS, sweep_point_configs

__all__ = ["TheoryPoint", "theory_curve"]


@dataclass(frozen=True)
class TheoryPoint:
    """One analytic evaluation along a sweep."""

    x: float
    kappa: float
    p_o: float
    delta_bound: float
    delay_bound_slots: float


def theory_curve(
    sweep_name: str, base: "ExperimentConfig | None" = None
) -> List[TheoryPoint]:
    """Theorem 2's delay bound along one Figure 6 sweep.

    Uses Lemma 6's high-probability bound for Delta and the tree root
    degree 1 (the most conservative choice).  Points where the paper's
    c2 constant leaves its valid domain are skipped.
    """
    if sweep_name not in FIG6_SWEEPS:
        raise ConfigurationError(
            f"unknown sweep {sweep_name!r}; valid: {sorted(FIG6_SWEEPS)}"
        )
    if base is None:
        base = ExperimentConfig.paper_scale()
    points: List[TheoryPoint] = []
    for x_value, config in sweep_point_configs(FIG6_SWEEPS[sweep_name], base):
        try:
            # Every PcrParameters field is a config field of the same name.
            pcr = compute_pcr(
                PcrParameters(
                    **{f.name: getattr(config, f.name) for f in fields(PcrParameters)}
                )
            )
        except PcrDomainError:
            continue
        p_o = opportunity_probability(
            config.p_t,
            pcr.kappa,
            config.su_radius,
            config.num_pus,
            config.area,
        )
        c0 = config.area / config.num_sus
        delta = lemma6_delta_bound(config.num_sus, config.su_radius, c0)
        delay = theorem2_delay_bound_slots(
            config.num_sus, pcr.kappa, delta, 1, p_o
        )
        points.append(
            TheoryPoint(
                x=x_value,
                kappa=pcr.kappa,
                p_o=p_o,
                delta_bound=delta,
                delay_bound_slots=delay,
            )
        )
    if not points:
        raise ConfigurationError(
            f"sweep {sweep_name!r} has no analytically valid points"
        )
    return points
