"""The primary network: PU placement and slotted activity processes.

Section III: "During a particular time slot, each PU transmits data
(performing as a transmitter) with probability p_t."  The paper calls this a
*generalized probabilistic model* — given a concrete traffic distribution,
``p_t`` is derived from it.  We provide the i.i.d. Bernoulli model the
analysis uses plus a two-state Markov (Gilbert) model with matching
stationary probability, which exercises temporally correlated PU traffic.

Active PUs transmit to a receiver sampled uniformly within their
transmission radius ``R``; receiver positions matter only to the SIR
validator (Lemma 2 checks interference *at PU receivers*).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "BatchedActivity",
    "BernoulliActivity",
    "MarkovActivity",
    "PrimaryNetwork",
]


class BatchedActivity:
    """The slotted on/off activity process shared by all PUs: a
    stationary-``p_t`` process whose slots advance in batches from
    pre-drawn uniforms (``next_states_batch``), one slot being a batch of
    one, which is what lets the slot engine fast-forward frozen slots."""

    _p_t: float

    @property
    def stationary_probability(self) -> float:
        return self._p_t

    def initial_states(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random(count) < self._p_t

    def next_states(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.next_states_batch(states, rng.random((1, states.shape[0])))[0]


class BernoulliActivity(BatchedActivity):
    """i.i.d. Bernoulli(p_t) activity per PU per slot — the paper's model.

    >>> model = BernoulliActivity(0.3)
    >>> model.stationary_probability
    0.3
    """

    def __init__(self, p_t: float) -> None:
        if not 0.0 <= p_t <= 1.0:
            raise ConfigurationError(f"p_t must be in [0, 1], got {p_t}")
        self._p_t = float(p_t)

    def next_states_batch(self, states: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Vectorized multi-slot advancement from pre-drawn uniforms.

        ``draws`` has shape ``(count, N)`` — row ``t`` holds the uniforms
        one :meth:`next_states` call would have drawn — and row ``t`` of
        the result equals the state after ``t + 1`` sequential calls.
        Callers own the RNG bookkeeping: a single ``rng.random((count, N))``
        consumes the stream exactly like ``count`` sequential calls.
        """
        return draws < self._p_t

    def __repr__(self) -> str:
        return f"BernoulliActivity(p_t={self._p_t})"


class MarkovActivity(BatchedActivity):
    """Two-state Markov (Gilbert) activity with bursty on/off periods.

    Parameters
    ----------
    p_t:
        Stationary transmission probability (matches the Bernoulli model,
        so analytic predictions built on p_t still apply in expectation).
    burstiness:
        Expected on-period length in slots (>= 1).  ``burstiness == 1`` with
        the induced off rate reduces to larger temporal correlation, not to
        the Bernoulli model; use :class:`BernoulliActivity` for i.i.d.

    The transition probabilities solve ``stationary = p_on_to_on`` structure:
    ``P(stay on) = 1 - 1/burstiness`` and ``P(off -> on)`` is chosen so the
    stationary probability equals ``p_t``.
    """

    def __init__(self, p_t: float, burstiness: float = 4.0) -> None:
        if not 0.0 < p_t < 1.0:
            raise ConfigurationError(f"p_t must be in (0, 1), got {p_t}")
        if burstiness < 1.0:
            raise ConfigurationError(f"burstiness must be >= 1, got {burstiness}")
        self._p_t = float(p_t)
        self._stay_on = 1.0 - 1.0 / float(burstiness)
        # Stationarity: p_t * (1 - stay_on) = (1 - p_t) * turn_on.
        turn_on = self._p_t * (1.0 - self._stay_on) / (1.0 - self._p_t)
        if turn_on > 1.0:
            raise ConfigurationError(
                f"p_t={p_t} with burstiness={burstiness} needs turn-on "
                f"probability {turn_on:.3f} > 1; increase burstiness"
            )
        self._turn_on = turn_on

    def next_states_batch(self, states: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Multi-slot advancement from pre-drawn uniforms (chain semantics).

        Same contract as :meth:`BernoulliActivity.next_states_batch`; the
        chain dependence makes each row a function of the previous one, so
        the rows are computed sequentially over the batched draws.
        """
        count = draws.shape[0]
        rows = np.empty((count, states.shape[0]), dtype=bool)
        current = states
        for index in range(count):
            slot_draws = draws[index]
            current = (current & (slot_draws < self._stay_on)) | (
                ~current & (slot_draws < self._turn_on)
            )
            rows[index] = current
        return rows

    def __repr__(self) -> str:
        return (
            f"MarkovActivity(p_t={self._p_t}, "
            f"stay_on={self._stay_on:.3f}, turn_on={self._turn_on:.3f})"
        )


class PrimaryNetwork:
    """The licensed network: positions, power, radius, and activity process.

    Parameters
    ----------
    positions:
        ``(N, 2)`` PU positions.
    power:
        Common transmission power ``P_p``.
    radius:
        Maximum transmission radius ``R``.
    activity:
        The slotted activity process (defaults to the paper's Bernoulli).
    """

    def __init__(
        self,
        positions: np.ndarray,
        power: float,
        radius: float,
        activity: BatchedActivity,
        paired_receivers: "np.ndarray | None" = None,
    ) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError(
                f"PU positions must have shape (N, 2), got {positions.shape}"
            )
        if power <= 0:
            raise ConfigurationError(f"PU power must be positive, got {power}")
        if radius <= 0:
            raise ConfigurationError(f"PU radius must be positive, got {radius}")
        self.positions = positions
        self.power = float(power)
        self.radius = float(radius)
        self.activity = activity
        if paired_receivers is not None:
            paired_receivers = np.asarray(paired_receivers, dtype=float)
            if paired_receivers.shape != positions.shape:
                raise ConfigurationError(
                    "paired_receivers must match the PU positions' shape"
                )
            link_lengths = np.hypot(*(paired_receivers - positions).T)
            if positions.shape[0] and float(link_lengths.max()) > radius + 1e-9:
                raise ConfigurationError(
                    "every paired receiver must lie within the PU radius"
                )
        self.paired_receivers = paired_receivers

    @property
    def num_pus(self) -> int:
        """Number of primary users N."""
        return self.positions.shape[0]

    def sample_receivers(
        self, transmitter_indices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Receiver positions for the given active transmitters.

        With ``paired_receivers`` set (a fixed partner per PU — e.g. a
        broadcast tower's fixed subscriber), those positions are returned;
        otherwise each receiver is sampled uniformly in the transmitter's
        radius-``R`` disk, matching ``D(S_i, S_i') <= R`` in Lemma 2's
        proof.
        """
        if self.paired_receivers is not None:
            return self.paired_receivers[
                np.asarray(transmitter_indices, dtype=int)
            ].copy()
        count = len(transmitter_indices)
        radii = self.radius * np.sqrt(rng.random(count))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
        receivers = np.empty((count, 2))
        base = self.positions[np.asarray(transmitter_indices, dtype=int)]
        receivers[:, 0] = base[:, 0] + radii * np.cos(angles)
        receivers[:, 1] = base[:, 1] + radii * np.sin(angles)
        return receivers

    def __repr__(self) -> str:
        return (
            f"PrimaryNetwork(num_pus={self.num_pus}, power={self.power}, "
            f"radius={self.radius}, activity={self.activity!r})"
        )
