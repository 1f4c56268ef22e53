"""Figure 4: the PCR value under different parameter settings.

Figure 4's caption fixes the defaults (``alpha = 4``, ``P_p = 10``,
``R = 12``, ``eta_p = 10 dB``, ``P_s = 10``, ``r = 10``, ``eta_s = 10 dB``)
and the paper's discussion varies the transmit powers and SIR thresholds,
comparing ``alpha = 3`` against ``alpha = 4`` (the PCR is larger for the
smaller exponent because far transmitters attenuate less).

:func:`figure4_rows` evaluates the PCR over sweeps of each varied
parameter for both exponents — the exact series behind the sub-plots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from repro.core.pcr import PcrParameters, compute_pcr

__all__ = ["FIG4_DEFAULTS", "FIG4_SWEEPS", "Fig4Row", "figure4_rows"]

#: Figure 4's caption defaults, which are :class:`PcrParameters`' own.
FIG4_DEFAULTS = PcrParameters()

#: The parameters Figure 4 varies and the sweep values we evaluate.
FIG4_SWEEPS: Dict[str, Sequence[float]] = {
    "pu_power": (5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
    "su_power": (5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
    "eta_p_db": (4.0, 6.0, 8.0, 10.0, 12.0, 14.0),
    "eta_s_db": (4.0, 6.0, 8.0, 10.0, 12.0, 14.0),
}

#: The two path-loss exponents Figure 4 contrasts.
FIG4_ALPHAS = (3.0, 4.0)


@dataclass(frozen=True)
class Fig4Row:
    """One evaluated point: PCR for a (parameter, value, alpha) triple."""

    parameter: str
    value: float
    alpha: float
    kappa: float
    pcr: float
    binding_constraint: str


def figure4_rows(
    sweeps: "Dict[str, Sequence[float]] | None" = None,
    alphas: Sequence[float] = FIG4_ALPHAS,
    defaults: PcrParameters = FIG4_DEFAULTS,
) -> List[Fig4Row]:
    """Evaluate every Figure 4 series point.

    Returns rows ordered by (parameter, alpha, value), ready for
    :func:`repro.experiments.report.render_fig4_table`.
    """
    chosen = sweeps if sweeps is not None else FIG4_SWEEPS
    rows: List[Fig4Row] = []
    for parameter, values in chosen.items():
        for alpha in alphas:
            for value in values:
                params = replace(defaults, alpha=alpha, **{parameter: value})
                result = compute_pcr(params)
                rows.append(
                    Fig4Row(
                        parameter=parameter,
                        value=float(value),
                        alpha=float(alpha),
                        kappa=result.kappa,
                        pcr=result.pcr,
                        binding_constraint=result.binding_constraint,
                    )
                )
    return rows
