"""How primary users block secondary users: one object per blocking model.

The slot engine reads no PU state, blocking row, PU incidence or row
stream; it asks the spectrum process :func:`blocking_model` built for its
run what it needs (see docs/DESIGN.md): ``advance`` one slot, which
eligible nodes ``sense`` busy, the ``frozen_prefix`` of the next slots
for its waiters (the fast-forward), the ``pu_interference`` at its
receivers while a PU is active, and the ``busy_channels`` of one node;
it reads ``active_pus``, ``channel_loads`` and ``stream_states()``.
Each object owns the two row streams it reads, ``pu-activity`` and
``sensing-errors`` (one :class:`repro.rng.RowStream` row per slot each).

* :class:`MeanFieldBlocking` — Lemma 7's mean field, the Fig. 6
  configuration: every SU is blocked i.i.d. per slot (and per channel)
  with probability ``1 - p_o``; PU interference is folded into the
  blocking, so no PU is ever active.  A row holds one draw per (node,
  channel), and ``draw >= p_o`` is the only question ever asked of one,
  so the stream compares each drawn block once and hands out bool rows.
* :class:`GeometricBlocking` — the deployed PUs: Bernoulli or Markov
  states, an SU blocked while an active PU of its channel sits
  inside its protection range; busy counts are rows of the float32 PU
  incidence times the states.  An energy detector may replace the flat
  sensing-error rates.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.network.topology import CrnTopology
from repro.rng import RowStream, StreamFactory
from repro.spectrum.pathloss import MIN_DISTANCE
from repro.spectrum.sensing import CarrierSenseMap

__all__ = ["Blocking", "MeanFieldBlocking", "GeometricBlocking", "blocking_model"]

#: First fast-forward peek, in rows; it doubles up to the streams' cap.
_FF_MIN_CHUNK = 16


def _frozen_prefix(busy: np.ndarray) -> int:
    """Leading rows of the 2-D bool ``busy`` that are all True.

    Row ``t`` is slot ``t``'s sensing outcome for each waiter, so this is
    the number of frozen slots before the first one in which any waiter
    senses its spectrum free.  One flat ``argmin`` finds the first False
    in row-major order, hence the first row holding one; if that entry is
    True there is no False at all.  With no column every row is frozen.
    """
    count, width = busy.shape
    if width == 0:
        return count
    first = int(busy.argmin())
    return count if busy.flat[first] else first // width


def _sensed_busy(
    busy: np.ndarray, draws: np.ndarray, p_false_alarm: float, p_missed: float
) -> np.ndarray:
    """Imperfect sensing: what nodes sense given whether they are ``busy``.

    A busy node senses busy unless its uniform draw falls below the
    missed-detection probability; a free node senses busy when its draw
    falls below the false-alarm probability.  The slot loop and the
    fast-forward scan both apply this rule, so they agree draw for draw.
    """
    return np.where(busy, draws >= p_missed, draws < p_false_alarm)


class Blocking:
    """What both models share: the two row streams, the flat sensing
    errors, the static per-channel PU loads and the fast-forward scan."""

    #: Indices of the PUs active this slot.
    active_pus = np.zeros(0, dtype=np.int64)
    #: Whether a node can sense a PU-busy spectrum free (a missed
    #: detection), so that a transmission may violate PU protection.
    can_miss = False
    #: Per channel, the PUs of that channel inside each node's protection
    #: range (multi-channel runs only).
    channel_loads: List[List[int]] = []

    def __init__(
        self,
        topology: CrnTopology,
        sense_map: CarrierSenseMap,
        streams: StreamFactory,
        channel_plan,
        row_width: int,
        threshold: Optional[float],
        p_false_alarm: float,
        p_missed_detection: float,
        detector: bool,
    ) -> None:
        self._num_channels = 1 if channel_plan is None else channel_plan.num_channels
        #: Busy counts are handed out in the PU incidence's dtype.
        self._count_dtype = sense_map.pu_count_dtype
        self._p_false_alarm = p_false_alarm
        self._p_missed = p_missed_detection
        #: Whether each slot draws a sensing-error row (flat errors or the
        #: energy detector): drawn for every node, read at the sensing ones.
        self._errors = p_false_alarm > 0.0 or p_missed_detection > 0.0 or detector
        self._pu_rng = RowStream(streams.stream("pu-activity"), row_width, threshold)
        self._sensing_rng = RowStream(
            streams.stream("sensing-errors"), topology.secondary.num_nodes
        )
        #: Rows the fast-forward scan peeks at most at once, over every
        #: stream it reads.
        self._max_chunk = self._pu_rng.max_peek
        if self._errors:
            self._max_chunk = min(self._max_chunk, self._sensing_rng.max_peek)
        #: Whether ``frozen_prefix`` may be asked.
        self.fast_forwards = self._num_channels == 1

    def _count_pus(
        self, topology: CrnTopology, sense_map: CarrierSenseMap, channel_plan
    ) -> None:
        """Keep the PU -> node hearing incidence and, with C channels, the
        PU -> channel one-hot, whose product with the incidence counts each
        node's in-range PUs per channel.  Float32, so products run in BLAS
        (numpy loops over integer ones): counts below 2**24 are exact in
        any summation order, so some rows of a product equal those rows of
        the full product."""
        self._incidence32 = sense_map.pu_incidence().astype(np.float32)
        if self._num_channels > 1:
            num_pus = topology.primary.num_pus
            self._onehot = np.zeros((num_pus, self._num_channels), dtype=np.float32)
            self._onehot[np.arange(num_pus), channel_plan.pu_channels] = 1
            self.channel_loads = (
                (self._incidence32 @ self._onehot).T.astype(np.int64).tolist()
            )

    def busy_channels(self, node: int) -> List[bool]:
        return (self.busy_counts([node]).reshape(-1) > 0).tolist()

    def _take_errors(self) -> None:
        if self._errors:
            self._draws = self._sensing_rng.take_row()

    def _sensed(self, busy: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """The flat error rates applied to ``nodes``' true ``busy``."""
        return _sensed_busy(busy, self._draws[nodes], self._p_false_alarm, self._p_missed)

    def frozen_prefix(self, waiters: np.ndarray, window: int) -> int:
        """Length of the frozen-slot run starting now, capped at ``window``.

        A slot is frozen when every waiter senses busy, a pure function of
        that slot's rows.  Peeks at doubling chunks of rows and consumes
        exactly the frozen prefix, so the process ends where advancing
        slot by slot would, and nothing is rewound.  With no waiter every
        slot is frozen, so the whole window goes.
        """
        busy_ahead = self._busy_ahead(waiters)
        skipped = 0
        chunk = _FF_MIN_CHUNK
        while skipped < window:
            count = min(chunk, self._max_chunk, window - skipped)
            busy = busy_ahead(count)
            if self._errors:
                draws = self._sensing_rng.peek(count).take(waiters, axis=1)
                busy = _sensed_busy(busy, draws, self._p_false_alarm, self._p_missed)
            run = _frozen_prefix(busy)
            if run:
                self._skip(run)
                if self._errors:
                    self._sensing_rng.skip(run)
            skipped += run
            if run < count:
                break
            chunk *= 2
        return skipped

    def stream_states(self) -> Dict[str, dict]:
        """Each owned stream's generator state after the rows taken."""
        return {
            "pu-activity": self._pu_rng.state(),
            "sensing-errors": self._sensing_rng.state(),
        }


class MeanFieldBlocking(Blocking):
    """Lemma 7's mean field: node ``i`` is blocked on channel ``c`` in a
    slot when entry ``i * C + c`` of that slot's bool row is set."""

    def __init__(
        self,
        topology: CrnTopology,
        sense_map: CarrierSenseMap,
        streams: StreamFactory,
        p_o: float,
        channel_plan=None,
        p_false_alarm: float = 0.0,
    ) -> None:
        channels = 1 if channel_plan is None else channel_plan.num_channels
        width = topology.secondary.num_nodes * channels
        super().__init__(
            topology,
            sense_map,
            streams,
            channel_plan,
            width,
            p_o,
            p_false_alarm,
            0.0,
            False,
        )
        if channels > 1:
            self._count_pus(topology, sense_map, channel_plan)
        self._row = np.zeros(width, dtype=bool)

    def advance(self, initial: bool = False) -> None:
        self._row = self._pu_rng.take_row()
        self._take_errors()

    def sense(self, nodes: np.ndarray, channels: Optional[List[int]]) -> np.ndarray:
        if channels is None:
            busy = self._row[nodes]
        else:
            busy = self._row[nodes * self._num_channels + np.asarray(channels)]
        return self._sensed(busy, nodes) if self._errors else busy

    def _busy_ahead(self, waiters: np.ndarray):
        # The next executed slot takes its own row, so none is kept.
        return lambda count: self._pu_rng.peek(count).take(waiters, axis=1)

    def _skip(self, run: int) -> None:
        self._pu_rng.skip(run)

    def busy_counts(self, nodes) -> np.ndarray:
        """Each of ``nodes``' blocking draws this slot, 1 when blocked:
        shape ``(len(nodes),)``, or ``(len(nodes), C)`` with C channels."""
        counts = self._row.reshape(-1, self._num_channels)[nodes]
        if self._num_channels == 1:
            counts = counts[:, 0]
        return counts.astype(self._count_dtype)


class GeometricBlocking(Blocking):
    """The deployed PUs: a node is blocked on a channel while an active PU
    of that channel sits inside its protection range."""

    def __init__(
        self,
        topology: CrnTopology,
        sense_map: CarrierSenseMap,
        streams: StreamFactory,
        alpha: float = 4.0,
        channel_plan=None,
        p_false_alarm: float = 0.0,
        p_missed_detection: float = 0.0,
        detector=None,
    ) -> None:
        primary = topology.primary
        super().__init__(
            topology,
            sense_map,
            streams,
            channel_plan,
            primary.num_pus,
            None,
            p_false_alarm,
            p_missed_detection,
            detector is not None,
        )
        self._count_pus(topology, sense_map, channel_plan)
        self._activity = primary.activity
        self._pu_positions = primary.positions
        self._pu_power = primary.power
        self._alpha = float(alpha)
        self._pu_channels = channel_plan.pu_channels if self._num_channels > 1 else None
        self.can_miss = p_missed_detection > 0.0 or detector is not None
        self._detector = detector
        if detector is not None:
            # log(1 - P_d) per (node, in-range PU): one matvec per slot
            # yields each node's probability of missing every active PU.
            self._miss_log = detector.miss_log_matrix(
                topology.secondary.positions,
                primary.positions,
                sense_map.pu_hearers,
                primary.power,
                self._alpha,
            )
        self._set_states(np.zeros(primary.num_pus, dtype=bool))
        # Batches of slots advance from peeked rows only with one channel
        # and no detector.
        self.fast_forwards &= detector is None

    def _set_states(self, states: np.ndarray) -> None:
        """Make ``states`` the PU activity and refresh what it feeds: the
        active-PU list and, with one channel, the float32 states each busy
        count multiplies, else every node's per-channel counts."""
        self._states = states
        self.active_pus = states.nonzero()[0]
        if self._num_channels == 1:
            self._states32 = states.astype(np.float32)
        else:
            # Row c of the transpose: every node's active PUs on channel c.
            self._columns = (self._incidence32 @ (self._onehot * states[:, None])).T

    def advance(self, initial: bool = False) -> None:
        if initial:
            states = self._activity.initial_states(self._states.size, self._pu_rng)
        else:
            states = self._activity.next_states(self._states, self._pu_rng)
        self._set_states(states)
        self._take_errors()

    def sense(self, nodes: np.ndarray, channels: Optional[List[int]]) -> np.ndarray:
        if self._detector is not None:
            # Energy detection (one channel): P(sensed busy) = 1 - P(miss
            # every active in-range PU) * P(no false alarm).
            miss_all = np.exp(self._miss_log @ self._states.astype(float))
            p_sensed_busy = 1.0 - miss_all * (1.0 - self._detector.false_alarm_probability)
            return self._draws[nodes] < p_sensed_busy[nodes]
        if channels is None:
            busy = (self._incidence32[nodes] @ self._states32) > 0
        else:
            busy = self._columns[channels, nodes] > 0
        return self._sensed(busy, nodes) if self._errors else busy

    def _busy_ahead(self, waiters: np.ndarray):
        incidence = self._incidence32[waiters].T

        def busy(count: int) -> np.ndarray:
            self._ahead = self._activity.next_states_batch(
                self._states, self._pu_rng.peek(count)
            )
            return (self._ahead.astype(np.float32) @ incidence) > 0

        return busy

    def _skip(self, run: int) -> None:
        self._pu_rng.skip(run)
        self._set_states(self._ahead[run - 1])

    def busy_counts(self, nodes) -> np.ndarray:
        """Active PUs each of ``nodes`` hears this slot: shape
        ``(len(nodes),)``, or ``(len(nodes), C)`` with C channels."""
        if self._num_channels > 1:
            counts = self._columns[:, nodes].T
        else:
            counts = self._incidence32[nodes] @ self._states32
        return counts.astype(self._count_dtype)

    def pu_interference(self, points: np.ndarray, channels) -> List[float]:
        """Each receiver's interference from the active PUs of its channel
        (asked only while a PU is active)."""
        active = self.active_pus
        deltas = points[:, None] - self._pu_positions[active]
        distances = np.maximum(np.hypot(deltas[..., 0], deltas[..., 1]), MIN_DISTANCE)
        terms = self._pu_power * distances ** (-self._alpha)
        if self._pu_channels is not None:
            # Only same-channel PUs interfere.
            terms = terms * (np.asarray(channels)[:, None] == self._pu_channels[active])
        return terms.sum(axis=1).tolist()


def blocking_model(
    blocking: str,
    topology: CrnTopology,
    sense_map: CarrierSenseMap,
    streams: StreamFactory,
    *,
    homogeneous_p_o: Optional[float] = None,
    alpha: float = 4.0,
    channel_plan=None,
    p_false_alarm: float = 0.0,
    p_missed_detection: float = 0.0,
    detector=None,
    stuck_idle: bool = False,
) -> Blocking:
    """The spectrum process of a run, checked against its other settings.

    Parameters
    ----------
    blocking:
        How PU activity blocks SUs.  ``"geometric"`` uses the exact
        deployed PU positions: an SU is blocked while any active PU sits
        inside its protection range, so per-node opportunity rates are
        heterogeneous (a node ringed by PUs waits far longer than Lemma 7's
        average).  ``"homogeneous"`` is the mean-field model the paper's
        analysis adopts ("Based on Lemma 7, we assume the waiting time for
        an SU is tau/p_o"): every SU is blocked i.i.d. per slot with
        probability ``1 - homogeneous_p_o``, and PU interference is folded
        into the blocking (no positional PU interference terms).
    homogeneous_p_o:
        The per-slot opportunity probability for ``blocking="homogeneous"``
        (Lemma 7's ``p_o``); required in that mode.
    p_false_alarm / p_missed_detection:
        Imperfect spectrum sensing (the concern of the paper's references
        [3]-[5]).  Per node per slot: with probability ``p_false_alarm`` a
        PU-free spectrum is sensed busy (a lost opportunity); with
        probability ``p_missed_detection`` a PU-busy spectrum is sensed
        free, so the node may transmit while a PU is active inside its
        protection range, which under geometric blocking usually fails the
        SIR adjudication.  Defaults are perfect sensing, the paper's
        assumption.
    detector:
        Optional :class:`~repro.spectrum.detection.EnergyDetector`.  When
        given, sensing outcomes come from the energy-detection physics
        (per-PU detection probabilities fall with distance, so missed
        detections concentrate on protection-range-boundary PUs) instead
        of the flat ``p_false_alarm`` / ``p_missed_detection`` knobs,
        which are then ignored.  Geometric blocking only, and
        single-channel only (per-channel detection would need one detector
        decision per channel).
    stuck_idle:
        Whether a fault pins a detector idle: like a missed detection it
        needs PU positions.
    """
    if blocking not in ("geometric", "homogeneous"):
        raise ConfigurationError(
            f"blocking must be 'geometric' or 'homogeneous', got {blocking!r}"
        )
    if blocking == "homogeneous" and (
        homogeneous_p_o is None or not 0.0 < homogeneous_p_o <= 1.0
    ):
        raise ConfigurationError(
            "homogeneous blocking needs homogeneous_p_o in (0, 1], got "
            f"{homogeneous_p_o}"
        )
    for name, value in (
        ("p_false_alarm", p_false_alarm),
        ("p_missed_detection", p_missed_detection),
    ):
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    if detector is not None and channel_plan is not None and channel_plan.num_channels > 1:
        raise ConfigurationError(
            "energy detection currently supports the single-channel model only"
        )
    if blocking == "geometric":
        return GeometricBlocking(
            topology,
            sense_map,
            streams,
            alpha,
            channel_plan,
            float(p_false_alarm),
            float(p_missed_detection),
            detector,
        )
    if p_missed_detection > 0.0 or detector is not None or stuck_idle:
        raise ConfigurationError(
            "missed detections, energy detection and stuck-idle faults "
            "need blocking='geometric': the mean-field model folds PU "
            "interference into the blocking and has no PU positions, so "
            "a node sensing a busy spectrum free there would transmit "
            "consequence-free (false alarms and stuck-busy faults are "
            "fine in either mode)"
        )
    return MeanFieldBlocking(
        topology,
        sense_map,
        streams,
        float(homogeneous_p_o),
        channel_plan,
        float(p_false_alarm),
    )
