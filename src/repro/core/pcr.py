"""The Proper Carrier-sensing Range (Section IV-B).

An SU that senses the spectrum idle over the PCR ``kappa * r`` can transmit
without disturbing any PU and without colliding with any other sensing SU:
Definition 4.3 asks that every :math:`\\mathcal R`-set (pairwise distance at
least :math:`\\mathcal R`) be a concurrent set, and Lemmas 2-3 give the
sufficient radii

.. math::

   \\mathcal R \\ge (1 + \\sqrt[\\alpha]{c_2 \\eta_p / c_1}) R
   \\quad\\text{and}\\quad
   \\mathcal R \\ge (1 + \\sqrt[\\alpha]{c_2 \\eta_s / c_3}) r

with :math:`c_1 = P_p / \\max\\{P_p, P_s\\}`,
:math:`c_3 = P_s / \\max\\{P_p, P_s\\}` and the hexagon-packing constant

.. math::  c_2 = 6 + 6 (\\sqrt 3 / 2)^{-\\alpha} \\cdot Z(\\alpha),

where :math:`Z(\\alpha)` bounds :math:`\\sum_{l \\ge 2} l^{1-\\alpha}`.

Zeta-bound variants
-------------------
The paper takes ``Z(alpha) = 1/(alpha-2) - 1`` via the step
``zeta(x) <= 1/(x-1)``.  That inequality is actually reversed
(``zeta(x) > 1/(x-1)`` for all ``x > 1``), and the resulting ``c2`` turns
non-positive for ``alpha`` above roughly 4.25, outside the Riemann-sum
domain.  We therefore expose three variants:

``"paper"``
    The paper's constant, bit-for-bit; raises
    :class:`~repro.errors.PcrDomainError` where it breaks down.  All of the
    paper's figures stay inside its valid range, so every reproduction uses
    this.
``"safe"``
    ``Z(alpha) = 1/(alpha-2)`` from the valid bound
    ``zeta(x) <= 1 + 1/(x-1)``.  Always positive; a conservative PCR.
``"exact"``
    ``Z(alpha) = zeta(alpha-1) - 1`` evaluated with SciPy: the exact value
    of the interference series, hence the smallest certified PCR of the
    three (Ablation B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, PcrDomainError

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "zeta_series_bound",
    "c2_constant",
    "PcrParameters",
    "PcrResult",
    "compute_pcr",
]

_VALID_BOUNDS = ("paper", "safe", "exact")


def db_to_linear(value_db: float) -> float:
    """Convert a dB quantity (e.g. an SIR threshold) to linear scale.

    >>> db_to_linear(10.0)
    10.0
    >>> round(db_to_linear(3.0), 3)
    1.995
    """
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a positive linear quantity to dB."""
    if value <= 0:
        raise ConfigurationError(f"dB conversion needs a positive value, got {value}")
    return 10.0 * math.log10(value)


def zeta_series_bound(alpha: float, variant: str = "paper") -> float:
    """Bound ``Z(alpha)`` on the layer series ``sum_{l >= 2} l^{1 - alpha}``.

    See the module docstring for the three variants.
    """
    if alpha <= 2.0:
        raise ConfigurationError(f"alpha must be > 2, got {alpha}")
    if variant == "paper":
        return 1.0 / (alpha - 2.0) - 1.0
    if variant == "safe":
        return 1.0 / (alpha - 2.0)
    if variant == "exact":
        from scipy.special import zeta  # imported on first use: SciPy is slow to load

        return float(zeta(alpha - 1.0)) - 1.0
    raise ConfigurationError(
        f"unknown zeta bound variant {variant!r}; choose from {_VALID_BOUNDS}"
    )


def c2_constant(alpha: float, variant: str = "paper") -> float:
    """The hexagon-packing constant ``c2`` of Lemma 2.

    Raises
    ------
    PcrDomainError
        If the requested variant yields ``c2 <= 0`` (only possible for
        ``"paper"`` with ``alpha`` above ~4.25).
    """
    c2 = 6.0 + 6.0 * (math.sqrt(3.0) / 2.0) ** (-alpha) * zeta_series_bound(
        alpha, variant
    )
    if c2 <= 0:
        raise PcrDomainError(
            f"c2 = {c2:.4f} <= 0 for alpha = {alpha} with the {variant!r} zeta "
            "bound; the paper's derivation is outside its valid domain here — "
            "use zeta_bound='safe' or 'exact'"
        )
    return c2


@dataclass(frozen=True)
class PcrParameters:
    """Inputs to the PCR computation (Fig. 4 defaults).

    SIR thresholds are given in **dB**, matching how the paper reports them
    (``eta_p = 10 dB`` etc.).
    """

    alpha: float = 4.0
    pu_power: float = 10.0
    su_power: float = 10.0
    pu_radius: float = 12.0
    su_radius: float = 10.0
    eta_p_db: float = 10.0
    eta_s_db: float = 10.0
    zeta_bound: str = "paper"

    def __post_init__(self) -> None:
        if self.alpha <= 2.0:
            raise ConfigurationError(f"alpha must be > 2, got {self.alpha}")
        for name in ("pu_power", "su_power", "pu_radius", "su_radius"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.zeta_bound not in _VALID_BOUNDS:
            raise ConfigurationError(
                f"zeta_bound must be one of {_VALID_BOUNDS}, got {self.zeta_bound!r}"
            )

    @property
    def eta_p(self) -> float:
        """Primary SIR threshold, linear scale."""
        return db_to_linear(self.eta_p_db)

    @property
    def eta_s(self) -> float:
        """Secondary SIR threshold, linear scale."""
        return db_to_linear(self.eta_s_db)


@dataclass(frozen=True)
class PcrResult:
    """Output of :func:`compute_pcr`: every intermediate of Eq. 16."""

    c1: float
    c2: float
    c3: float
    primary_term: float
    secondary_term: float
    kappa: float
    pcr: float

    @property
    def binding_constraint(self) -> str:
        """Which of the two lemmas determined kappa."""
        return "primary" if self.primary_term >= self.secondary_term else "secondary"


def compute_pcr(params: PcrParameters) -> PcrResult:
    """Evaluate Eq. 16: ``kappa`` and the PCR ``kappa * r``.

    ``kappa = max( (1 + (c2 eta_p / c1)^{1/alpha}) R / r,
    1 + (c2 eta_s / c3)^{1/alpha} )``, and the PCR is ``kappa * r``.

    >>> result = compute_pcr(PcrParameters())
    >>> result.pcr >= PcrParameters().su_radius
    True
    """
    max_power = max(params.pu_power, params.su_power)
    c1 = params.pu_power / max_power
    c3 = params.su_power / max_power
    c2 = c2_constant(params.alpha, params.zeta_bound)

    primary_term = (
        1.0 + (c2 * params.eta_p / c1) ** (1.0 / params.alpha)
    ) * params.pu_radius / params.su_radius
    secondary_term = 1.0 + (c2 * params.eta_s / c3) ** (1.0 / params.alpha)
    kappa = max(primary_term, secondary_term)
    return PcrResult(
        c1=c1,
        c2=c2,
        c3=c3,
        primary_term=primary_term,
        secondary_term=secondary_term,
        kappa=kappa,
        pcr=kappa * params.su_radius,
    )
