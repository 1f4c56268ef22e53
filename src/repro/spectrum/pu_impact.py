"""Measuring the secondary network's impact on primary users.

The whole construction exists to guarantee one thing: SU transmissions
never break a PU link (Lemma 2).  This module measures that guarantee
instead of assuming it: during a simulation, every slot's active PU links
are evaluated under the physical model twice — once with the concurrent SU
transmitters' interference, once without — and the degradation statistics
are aggregated.

Attach :class:`PuImpactProbe` as the engine's ``slot_hook``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["PuImpactReport", "PuImpactProbe"]

_MIN_DISTANCE = 1e-6


@dataclass
class PuImpactReport:
    """Aggregated PU-link statistics over a probed run."""

    eta_p: float
    links_evaluated: int = 0
    #: PU links that fail eta_p *because of* SU interference: they pass
    #: without the secondary network and fail with it.
    links_broken_by_sus: int = 0
    #: PU links failing even without SUs (the primary network's own
    #: uncoordinated interference; not the secondary network's fault).
    links_self_failing: int = 0
    worst_margin_db: float = float("inf")
    margins_db: List[float] = field(default_factory=list)

    @property
    def breakage_rate(self) -> float:
        """Fraction of otherwise-healthy PU links broken by SUs."""
        healthy = self.links_evaluated - self.links_self_failing
        if healthy <= 0:
            return 0.0
        return self.links_broken_by_sus / healthy

    @property
    def median_margin_db(self) -> float:
        """Median SIR margin (dB over eta_p) of healthy PU links."""
        if not self.margins_db:
            return float("inf")
        return float(np.median(self.margins_db))


class PuImpactProbe:
    """Per-slot probe evaluating active PU links under the SIR model.

    Parameters
    ----------
    alpha / eta_p / pu_power / su_power:
        Physical-model parameters (``eta_p`` linear).
    streams:
        Stream factory; consumes the ``"pu-receivers"`` stream to sample
        each active PU's receiver within its transmission radius.
    sample_every:
        Probe every k-th slot (1 = every slot).
    """

    def __init__(
        self,
        alpha: float,
        eta_p: float,
        pu_power: float,
        su_power: float,
        streams,
        sample_every: int = 1,
    ) -> None:
        if eta_p <= 0:
            raise ConfigurationError("eta_p must be positive (linear scale)")
        if sample_every < 1:
            raise ConfigurationError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.alpha = float(alpha)
        self.eta_p = float(eta_p)
        self.pu_power = float(pu_power)
        self.su_power = float(su_power)
        self.sample_every = int(sample_every)
        self._rng = streams.stream("pu-receivers")
        self.report = PuImpactReport(eta_p=self.eta_p)

    def __call__(self, engine) -> None:
        """The engine's ``slot_hook`` entry point."""
        if engine.slot % self.sample_every != 0:
            return
        active = engine.last_slot_active_pus
        if not active:
            return
        primary = engine.topology.primary
        transmitters = primary.positions[np.asarray(active, dtype=int)]
        receivers = primary.sample_receivers(
            np.asarray(active, dtype=int), self._rng
        )
        su_positions = engine.topology.secondary.positions
        su_tx = (
            su_positions[[node for node, _ in engine.last_slot_su_links]]
            if engine.last_slot_su_links
            else np.empty((0, 2))
        )

        for index in range(transmitters.shape[0]):
            receiver = receivers[index]
            signal_distance = max(
                float(np.hypot(*(transmitters[index] - receiver))), _MIN_DISTANCE
            )
            signal = self.pu_power * signal_distance ** (-self.alpha)

            # Interference from the *other* active PUs.
            others = np.delete(transmitters, index, axis=0)
            pu_interference = 0.0
            if others.size:
                distances = np.maximum(
                    np.hypot(*(others - receiver).T), _MIN_DISTANCE
                )
                pu_interference = float(
                    (self.pu_power * distances ** (-self.alpha)).sum()
                )
            su_interference = 0.0
            if su_tx.size:
                distances = np.maximum(
                    np.hypot(*(su_tx - receiver).T), _MIN_DISTANCE
                )
                su_interference = float(
                    (self.su_power * distances ** (-self.alpha)).sum()
                )

            self.report.links_evaluated += 1
            sir_without_sus = (
                signal / pu_interference if pu_interference > 0 else float("inf")
            )
            total = pu_interference + su_interference
            sir_with_sus = signal / total if total > 0 else float("inf")

            if sir_without_sus < self.eta_p:
                self.report.links_self_failing += 1
                continue
            if sir_with_sus < self.eta_p:
                self.report.links_broken_by_sus += 1
                continue
            margin = 10.0 * np.log10(sir_with_sus / self.eta_p)
            self.report.margins_db.append(float(margin))
            self.report.worst_margin_db = min(
                self.report.worst_margin_db, float(margin)
            )
