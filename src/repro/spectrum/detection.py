"""Energy-detection spectrum sensing.

The paper assumes perfect sensing; its references [3]-[5] study the real
thing: an SU integrates received energy over a sensing window and compares
it with a threshold.  Two error types fall out of the physics:

* a **false alarm** — noise alone crosses the threshold: probability
  ``P_fa = Q((lambda - 1) * sqrt(M))`` for a normalized threshold
  ``lambda`` over ``M`` integrated samples (CLT approximation of the
  chi-square detector, noise power normalized to 1);
* a **missed detection** — signal plus noise stays below the threshold:
  for a PU received at SNR ``gamma``,
  ``P_md = 1 - Q((lambda - 1 - gamma) * sqrt(M) / (1 + gamma))``.

Because ``gamma`` falls with distance as ``P_p d^-alpha / noise``, misses
concentrate exactly where they are dangerous: on PUs near the edge of the
protection range, which the SU must defer to but barely hears.

:class:`EnergyDetector` precomputes, for every (secondary node, PU) pair
inside the protection range, the per-slot detection probability; the
engine then senses *busy* iff at least one active in-range PU is detected
(OR-rule over the in-range set), which vectorizes to one matrix product
per slot in log-miss space.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.spectrum.pathloss import MIN_DISTANCE

__all__ = ["q_function", "EnergyDetector"]


def q_function(x):
    """The Gaussian tail function Q(x) = P(N(0,1) > x) (vectorized)."""
    from scipy.special import erfc  # imported on first use: SciPy is slow to load

    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


class EnergyDetector:
    """Energy detector with a normalized threshold over M samples.

    Parameters
    ----------
    threshold:
        Normalized decision threshold ``lambda`` (noise power = 1).
        ``lambda = 1`` fires on half the noise-only slots; practical
        operating points sit slightly above 1.
    num_samples:
        Samples integrated per sensing decision, ``M`` (more samples
        sharpen the detector: both error rates fall).
    noise_power:
        Receiver noise power in the same units as the received PU power.
    """

    def __init__(
        self,
        threshold: float = 1.1,
        num_samples: int = 200,
        noise_power: float = 1e-4,
    ) -> None:
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be positive, got {threshold}")
        if num_samples < 1:
            raise ConfigurationError(
                f"num_samples must be >= 1, got {num_samples}"
            )
        if noise_power <= 0:
            raise ConfigurationError(
                f"noise_power must be positive, got {noise_power}"
            )
        self.threshold = float(threshold)
        self.num_samples = int(num_samples)
        self.noise_power = float(noise_power)

    @property
    def false_alarm_probability(self) -> float:
        """Per-decision false-alarm probability (PU absent)."""
        return float(
            q_function((self.threshold - 1.0) * math.sqrt(self.num_samples))
        )

    def detection_probability(self, snr) -> np.ndarray:
        """Per-decision detection probability at the given linear SNR(s)."""
        snr = np.asarray(snr, dtype=float)
        if (snr < 0).any():
            raise ConfigurationError("SNR must be non-negative")
        argument = (
            (self.threshold - 1.0 - snr)
            * math.sqrt(self.num_samples)
            / (1.0 + snr)
        )
        return q_function(argument)

    def snr_at(self, pu_power: float, distance, alpha: float) -> np.ndarray:
        """Received SNR of a PU signal at the given distance(s)."""
        distance = np.maximum(np.asarray(distance, dtype=float), MIN_DISTANCE)
        return pu_power * distance ** (-alpha) / self.noise_power

    def miss_log_matrix(
        self,
        su_positions: np.ndarray,
        pu_positions: np.ndarray,
        pu_hearers: List[List[int]],
        pu_power: float,
        alpha: float,
    ) -> np.ndarray:
        """``log(1 - P_d)`` for every (node, in-range PU) pair, else 0.

        With this matrix ``L``, a slot's per-node probability of missing
        *every* active in-range PU is ``exp(L @ active_indicator)`` — one
        matrix-vector product per slot.
        """
        num_nodes = su_positions.shape[0]
        num_pus = pu_positions.shape[0]
        matrix = np.zeros((num_nodes, num_pus))
        for pu_index, nodes in enumerate(pu_hearers):
            if not nodes:
                continue
            distances = np.hypot(
                *(su_positions[nodes] - pu_positions[pu_index]).T
            )
            snr = self.snr_at(pu_power, distances, alpha)
            p_detect = np.clip(self.detection_probability(snr), 0.0, 1.0 - 1e-12)
            matrix[nodes, pu_index] = np.log1p(-p_detect)
        return matrix

    def __repr__(self) -> str:
        return (
            f"EnergyDetector(threshold={self.threshold}, "
            f"num_samples={self.num_samples}, noise_power={self.noise_power}, "
            f"P_fa={self.false_alarm_probability:.4f})"
        )
