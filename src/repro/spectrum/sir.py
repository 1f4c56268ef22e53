"""Signal-to-Interference Ratio under the physical interference model.

Section III defines success of a PU (respectively SU) transmission by the
SIR at its receiver exceeding ``eta_p`` (respectively ``eta_s``), with the
interference summing the attenuated powers of *all other* concurrent
transmitters of both networks.  :class:`SirValidator` evaluates exactly
these inequalities for a concrete concurrent transmitter set — it is the
empirical check of Lemmas 2-3 used by the tests and (optionally) by the
simulator at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.numeric import is_zero
from repro.errors import ConfigurationError
from repro.spectrum.pathloss import MIN_DISTANCE, received_power

__all__ = ["sir_at_receiver", "SirReport", "SirValidator"]


def sir_at_receiver(
    receiver: np.ndarray,
    transmitter: np.ndarray,
    transmitter_power: float,
    interferer_positions: np.ndarray,
    interferer_powers: np.ndarray,
    alpha: float,
) -> float:
    """SIR at ``receiver`` for the signal from ``transmitter``.

    ``interferer_positions``/``interferer_powers`` describe every *other*
    concurrent transmitter (PU or SU).  With no interferers the SIR is
    ``inf`` — the paper's model has no noise floor.
    """
    receiver = np.asarray(receiver, dtype=float)
    transmitter = np.asarray(transmitter, dtype=float)
    signal_distance = float(np.hypot(*(transmitter - receiver)))
    signal = float(received_power(transmitter_power, signal_distance, alpha))

    interferer_positions = np.asarray(interferer_positions, dtype=float)
    if interferer_positions.size == 0:
        return float("inf")
    deltas = interferer_positions - receiver[None, :]
    distances = np.hypot(deltas[:, 0], deltas[:, 1])
    powers = np.asarray(interferer_powers, dtype=float)
    if powers.shape[0] != distances.shape[0]:
        raise ConfigurationError(
            "interferer_powers length must match interferer_positions"
        )
    interference = float(
        np.sum(powers * np.maximum(distances, MIN_DISTANCE) ** (-alpha))
    )
    # Zero-interference guard (underflowed aggregate power counts as none):
    # the paper's noise-free model then gives an infinite SIR.
    if is_zero(interference, abs_tol=1e-300):
        return float("inf")
    return signal / interference


@dataclass
class SirReport:
    """Outcome of validating one concurrent transmitter set.

    ``pu_sirs`` / ``su_sirs`` hold the evaluated SIR for every checked link
    in the same order the links were supplied; a link passes when its SIR
    meets the corresponding network threshold.
    """

    eta_p: float
    eta_s: float
    pu_sirs: List[float] = field(default_factory=list)
    su_sirs: List[float] = field(default_factory=list)

    @property
    def pu_ok(self) -> bool:
        """Whether every PU link meets ``eta_p``."""
        return all(sir >= self.eta_p for sir in self.pu_sirs)

    @property
    def su_ok(self) -> bool:
        """Whether every SU link meets ``eta_s``."""
        return all(sir >= self.eta_s for sir in self.su_sirs)

    @property
    def all_ok(self) -> bool:
        """Whether the set is a concurrent set in the sense of Definition 4.1."""
        return self.pu_ok and self.su_ok

    @property
    def min_margin_db(self) -> float:
        """Smallest SIR margin over the threshold, in dB (``inf`` if no links)."""
        margins: List[float] = []
        for sir in self.pu_sirs:
            margins.append(10.0 * np.log10(sir / self.eta_p) if sir > 0 else -np.inf)
        for sir in self.su_sirs:
            margins.append(10.0 * np.log10(sir / self.eta_s) if sir > 0 else -np.inf)
        return float(min(margins)) if margins else float("inf")


class SirValidator:
    """Checks that a concrete set of concurrent links satisfies the SIR model.

    Parameters
    ----------
    alpha:
        Path loss exponent.
    eta_p / eta_s:
        Linear (not dB) SIR thresholds of the two networks.
    pu_power / su_power:
        ``P_p`` and ``P_s``.
    """

    def __init__(
        self,
        alpha: float,
        eta_p: float,
        eta_s: float,
        pu_power: float,
        su_power: float,
    ) -> None:
        if eta_p <= 0 or eta_s <= 0:
            raise ConfigurationError("SIR thresholds must be positive (linear scale)")
        self.alpha = float(alpha)
        self.eta_p = float(eta_p)
        self.eta_s = float(eta_s)
        self.pu_power = float(pu_power)
        self.su_power = float(su_power)

    def validate(
        self,
        pu_links: Sequence[Tuple[np.ndarray, np.ndarray]],
        su_links: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> SirReport:
        """Evaluate every link's SIR against the full concurrent set.

        Parameters
        ----------
        pu_links:
            ``(transmitter_position, receiver_position)`` pairs for active
            PU transmissions.
        su_links:
            Same, for active SU transmissions.
        """
        pu_tx = np.array([tx for tx, _ in pu_links], dtype=float).reshape(-1, 2)
        su_tx = np.array([tx for tx, _ in su_links], dtype=float).reshape(-1, 2)
        all_tx = np.vstack([pu_tx, su_tx]) if (len(pu_links) + len(su_links)) else (
            np.empty((0, 2))
        )
        all_powers = np.concatenate(
            [
                np.full(len(pu_links), self.pu_power),
                np.full(len(su_links), self.su_power),
            ]
        )

        report = SirReport(eta_p=self.eta_p, eta_s=self.eta_s)
        for index, (transmitter, receiver) in enumerate(pu_links):
            mask = np.ones(all_tx.shape[0], dtype=bool)
            mask[index] = False
            report.pu_sirs.append(
                sir_at_receiver(
                    receiver,
                    transmitter,
                    self.pu_power,
                    all_tx[mask],
                    all_powers[mask],
                    self.alpha,
                )
            )
        for index, (transmitter, receiver) in enumerate(su_links):
            mask = np.ones(all_tx.shape[0], dtype=bool)
            mask[len(pu_links) + index] = False
            report.su_sirs.append(
                sir_at_receiver(
                    receiver,
                    transmitter,
                    self.su_power,
                    all_tx[mask],
                    all_powers[mask],
                    self.alpha,
                )
            )
        return report
