"""Statistical inference helpers for repeated-simulation results.

Simulation papers report means over a handful of repetitions; these
helpers attach the uncertainty those means carry:

* :func:`t_confidence_interval` — the classic Student-t interval for the
  mean of i.i.d. repetitions,
* :func:`bootstrap_confidence_interval` — percentile bootstrap for small,
  skewed samples (delay distributions usually are),
* :func:`comparison_significant` — whether an observed ADDC-vs-baseline
  gap survives its uncertainty (Welch's t-test).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ConfidenceInterval",
    "t_confidence_interval",
    "bootstrap_confidence_interval",
    "comparison_significant",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval for a mean."""

    mean: float
    lower: float
    upper: float
    confidence: float

    @property
    def half_width(self) -> float:
        """Half the interval width (the +/- the paper would print)."""
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval (inclusive)."""
        return self.lower <= value <= self.upper


def _check_sample(values: Sequence[float], minimum: int) -> np.ndarray:
    sample = np.asarray(values, dtype=float)
    if sample.ndim != 1 or sample.size < minimum:
        raise ConfigurationError(
            f"need at least {minimum} repetitions, got {sample.size}"
        )
    if not np.isfinite(sample).all():
        raise ConfigurationError("sample must be finite")
    return sample


def t_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean.

    >>> ci = t_confidence_interval([10.0, 12.0, 11.0, 13.0])
    >>> ci.contains(11.5)
    True
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    sample = _check_sample(values, minimum=2)
    mean = float(sample.mean())
    stderr = float(sample.std(ddof=1)) / math.sqrt(sample.size)
    from scipy.stats import t  # imported on first use: SciPy is slow to load

    quantile = float(t.ppf((1.0 + confidence) / 2.0, sample.size - 1))
    margin = quantile * stderr
    return ConfidenceInterval(
        mean=mean, lower=mean - margin, upper=mean + margin, confidence=confidence
    )


def bootstrap_confidence_interval(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    *,
    rng: np.random.Generator,
) -> ConfidenceInterval:
    """Percentile-bootstrap confidence interval for the mean.

    Resampling randomness is injected by the caller so it is tracked by
    the experiment's :class:`repro.rng.StreamFactory`::

        ci = bootstrap_confidence_interval(
            delays, rng=streams.stream("bootstrap")
        )
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 100:
        raise ConfigurationError(f"resamples must be >= 100, got {resamples}")
    sample = _check_sample(values, minimum=2)
    indices = rng.integers(0, sample.size, size=(resamples, sample.size))
    means = sample[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.quantile(means, [alpha, 1.0 - alpha])
    return ConfidenceInterval(
        mean=float(sample.mean()),
        lower=float(lower),
        upper=float(upper),
        confidence=confidence,
    )


def comparison_significant(
    baseline: Sequence[float],
    treatment: Sequence[float],
    alpha: float = 0.05,
) -> Tuple[bool, float]:
    """Welch's t-test: is the two-sample mean difference significant?

    Returns ``(significant, p_value)``.  Used to decide whether a measured
    ADDC-vs-Coolest gap at few repetitions is more than noise.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    a = _check_sample(baseline, minimum=2)
    b = _check_sample(treatment, minimum=2)
    from scipy.stats import ttest_ind  # imported on first use: SciPy is slow to load

    _, p_value = ttest_ind(a, b, equal_var=False)
    return bool(p_value < alpha), float(p_value)
