"""The slotted contention engine implementing Algorithm 1's semantics.

Per-slot procedure
------------------
0. **Housekeeping.**  Scheduled node departures retire (runtime churn:
   queued data is lost, the policy repairs its routing structure), and
   future arrivals whose birth slot is due join their source queues
   (continuous-collection workloads).
1. **PU activity.**  The run's spectrum process advances one slot
   (:mod:`repro.spectrum.blocking`, one object per blocking model).  Under
   geometric blocking every PU redraws its slotted activity (Bernoulli or
   Markov) and blocks every secondary node within the PU protection range
   (the PCR) — the regulatory constraint both ADDC and baselines obey.
   Under the mean field each node is instead blocked i.i.d. with
   probability ``1 - p_o``, one row of draws per slot.
2. **Contention.**  Only the *eligible* nodes sense: backlogged, past any
   collision hold-off, and not mid-transmission.  The spectrum process
   says which of them sense busy; no other node's state is computed.
   Sensing faults pin a node's outcome on top.  Every eligible SU that
   senses its protection range PU-free is *ready*; the rest count as
   frozen by PU activity.  A ready SU's would-be expiry time inside the slot is
   ``extra_wait + backoff`` (both below the contention window
   ``tau_c < tau``, so an unobstructed timer always fires within the slot).
   Ready SUs are processed in expiry order:

   * a node with no earlier-starting transmitter inside its **SU CSMA
     range** starts transmitting and blocks that neighbourhood from its
     start time onward;
   * a node that hears an earlier transmitter **freezes**: it consumed
     countdown until the transmitter started, keeps the remainder
     (Algorithm 1, lines 6-7), and retries next slot.

   Timer ties have probability zero with continuous draws (the paper's
   no-simultaneous-expiry assumption); exact float ties break
   deterministically in favour of the earlier-sorted node.  A slot with
   nobody ready and nothing on the air skips the freeze resolution and
   step 3.
3. **Physical outcome.**  At slot end every transmission is adjudicated by
   the physical interference model: the receiver decodes iff the link SIR —
   signal over the summed interference of all other concurrent SU
   transmitters plus all active PUs — meets ``eta_s``, and no stronger
   concurrent signal targets the same receiver (Re-Start capture,
   footnote 1).  With ADDC's CSMA range equal to the PCR, Lemma 3
   guarantees these checks pass — ADDC is collision-free by construction.
   A baseline sensing at its transmission radius keeps hidden terminals,
   fails SIR checks, and pays retransmissions: exactly the "data
   collisions, interference, and retransmissions" the paper's third
   challenge describes.
4. **Delivery and fairness.**  Decoded packets enter the receiver's queue
   (or are recorded at the base station).  A transmitter that drew ``t_i``
   waits ``tau_c - t_i`` of wall clock before its next backoff draw
   (line 12) when the policy asks for it.

After a slot with nothing on the air, the engine skips the run of slots in
which every waiting node senses busy in one step (see _try_fast_forward);
a slot hook, energy detector or channel plan turns it off.

The paper core (one channel, perfect sensing, 1-slot packets, no faults,
no future arrivals, no slot hook: every Fig. 6 point and Theorem 2 check)
is the procedure above and nothing else.  Each extension enters the slot
path at one place, behind a guard the core skips:

* faults: ``_process_faults``; future arrivals: ``_inject_arrivals``;
* multi-slot packets: ``_handoff_check`` (the paper's spectrum handoff
  aborts a packet whose channel a PU reclaims mid-flight) and ``_on_air``
  (winners stay on the air, adjudicated at their final slot);
* sensing errors and the energy detector: inside the spectrum process's
  ``sense``; multi-channel: ``_pick_channel`` at each backoff draw;
* PU-protection violations (only with missed detections, a detector or
  stuck-idle faults): ``busy_channels`` at slot end; the slot hook: each
  slot's end.

A node leaves the active set only through ``_deactivate``, which closes
its listening span.  See docs/MODEL.md for the full semantics.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

# Module import (not `from repro import obs`) keeps partial-initialization
# import orders safe; the facade is a no-op until a recorder is installed.
import repro.obs as obs
from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.network.topology import CrnTopology
from repro.rng import StreamFactory
from repro.sim.packet import Packet
from repro.sim.policies import MacPolicy
from repro.sim.results import FaultRecord, PacketRecord, SimulationResult
from repro.sim.trace import TraceEvent, TraceKind, TraceLog
from repro.spectrum.blocking import blocking_model
from repro.spectrum.pathloss import MIN_DISTANCE
from repro.spectrum.sensing import CarrierSenseMap

__all__ = ["SlottedEngine"]

_MIN_SQUARED_DISTANCE = MIN_DISTANCE ** 2

#: Collision recovery per the paper's footnote 2: after each failed
#: transmission a node holds off for a uniformly random number of slots
#: from a binary-exponentially growing window (reset on success), capped
#: at ``2 ** MAX_BACKOFF_EXPONENT`` slots.  Without it, saturated
#: hidden-terminal scenarios livelock — every slot recreates the same
#: colliding set.
MAX_BACKOFF_EXPONENT = 8

#: Span names of the engine's timing accumulators.  The slot loop times
#: each executed slot and its phases with bare clock reads; run() publishes
#: the per-run totals once, with one count per slot (per fast-forward
#: attempt for ``fast_forward``).
_PHASE_SPANS = {
    "slot": "engine.slot",
    "pu_redraw": "engine.phase.pu_redraw",
    "sensing": "engine.phase.sensing",
    "backoff": "engine.phase.backoff",
    "adjudicate": "engine.phase.adjudicate",
    "deliver": "engine.phase.deliver",
    "frozen_wait": "engine.phase.frozen_wait",
    "fast_forward": "engine.phase.fast_forward",
}


class SlottedEngine:
    """Simulates one data-collection run over a deployed CRN.

    Parameters
    ----------
    topology:
        The deployed networks.
    sense_map:
        Carrier-sensing incidence (PU protection range + SU CSMA range).
    policy:
        Forwarding + fairness behaviour (ADDC or a baseline).
    streams:
        Stream factory; the engine consumes the ``"backoff"`` stream and
        its spectrum process ``"pu-activity"`` and ``"sensing-errors"``.
    alpha:
        Path-loss exponent of the physical interference model.
    eta_s:
        Linear SIR decoding threshold of the secondary network.
    blocking / homogeneous_p_o / p_false_alarm / p_missed_detection / detector:
        How PU activity blocks SUs and how SUs sense it: they choose the
        run's spectrum process, :func:`repro.spectrum.blocking.blocking_model`
        (``"geometric"``, the default, or Lemma 7's ``"homogeneous"`` mean
        field with ``p_o = homogeneous_p_o``; perfect sensing by default,
        the paper's assumption).  A node that senses a PU-busy spectrum
        free transmits into an active PU inside its protection range,
        counted in ``SimulationResult.pu_violations``.
    channel_plan:
        Optional :class:`~repro.network.channels.ChannelPlan` for
        multi-channel operation.  Each PU occupies its licensed channel;
        each SU retunes at every backoff draw (strategy below), contends
        only with same-channel transmissions, and interference only
        couples same-channel transmitters.  ``None`` (default) is the
        paper's single-channel model, bit-for-bit.
    channel_strategy:
        How a retuning SU picks its channel (multi-channel only):

        * ``"random-idle"`` (default) — uniform over currently idle
          channels, uniform over all when none is idle;
        * ``"sticky"`` — keep the previous channel while it is idle,
          otherwise fall back to random-idle (minimizes retuning);
        * ``"least-blocked"`` — the idle channel with the fewest PUs
          inside the node's protection range (static knowledge of the
          local channel loads), ties randomly;
        * ``"adaptive"`` — the idle channel with the best observed
          success-per-attempt ratio at this node (optimistic for untried
          channels), ties randomly: a learning SU with no prior knowledge.
    packet_slots:
        Transmission duration in slots (default 1, the paper's setting:
        packet time < tau).  With longer packets the paper's *spectrum
        handoff* rule activates: an SU whose protection range sees a PU
        return mid-transmission aborts immediately (Section I), the packet
        stays queued, and ``SimulationResult.handoffs`` counts the event.
        A completing transmission is SIR-adjudicated against the concurrent
        set of its final slot.
    slot_duration_ms:
        The paper's ``tau`` (1 ms in all simulations).
    contention_window_ms:
        The paper's ``tau_c`` (0.5 ms in all simulations); must be at most
        half the slot so a fairness wait plus a backoff fits in one slot.
    max_slots:
        Safety cap; a run that exceeds it returns ``completed=False``.
    trace:
        Optional :class:`~repro.sim.trace.TraceLog` to record events into.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` of scripted adversity
        (see :mod:`repro.faults`).  A ``crash`` event is an SU powering off
        mid-run (Section I's churn, injected at runtime): its queued data
        packets are lost (counted in ``packets_lost``), in-flight
        transmissions abort, and the policy's ``on_node_departure(node)``
        hook repairs the routing structure and reports any nodes the
        departure *partitioned* — those retire (and lose their data) too.
        The run completes when every data packet is delivered or lost.
        A transient ``outage`` takes the node down without losing it: its
        queue is kept (or dropped when the
        event says so — dropped data counts as lost *and* orphaned), the
        policy repairs the routing structure around it, nodes the repair
        could not re-parent wait as *stranded* instead of retiring, and
        arrivals for any down node are buffered (``arrivals_deferred``)
        rather than lost.  From the scheduled recovery slot on, the engine
        asks ``policy.on_node_rejoin(node)`` each slot until the node
        re-attaches (e.g. via :func:`repro.graphs.repair.attach_node`);
        the reattachment slot is recorded per fault in
        ``SimulationResult.fault_records``.  Once no scheduled recovery is
        left that could bring an attachment point back, nodes still
        waiting retire like partitioned ones.  Sensing faults pin a node's
        detector busy (never transmits) or idle (transmits into PU
        activity); link-degradation events subtract ``extra_loss_db`` from
        the received signal of one directed link in SIR adjudication; a
        base-station blackout makes deliveries fail and retry
        (``blackout_failures``).
    slot_hook:
        Optional callable invoked as ``slot_hook(engine)`` at the end of
        every simulated slot, with ``last_slot_su_links``,
        ``last_slot_su_channels`` and ``last_slot_active_pus`` reflecting
        that slot; the engine builds those lists only when a hook is
        installed.  Used by the test suite to run the SIR validator
        against every concurrent set.  A hook must see every slot, so it
        turns the frozen-slot fast-forward off: a hooked run is the plain
        slot-by-slot loop.
    """

    def __init__(
        self,
        topology: CrnTopology,
        sense_map: CarrierSenseMap,
        policy: MacPolicy,
        streams: StreamFactory,
        alpha: float = 4.0,
        eta_s: float = 10.0 ** 0.8,
        blocking: str = "geometric",
        homogeneous_p_o: Optional[float] = None,
        p_false_alarm: float = 0.0,
        p_missed_detection: float = 0.0,
        channel_plan=None,
        channel_strategy: str = "random-idle",
        packet_slots: int = 1,
        detector=None,
        fault_plan: Optional[FaultPlan] = None,
        slot_duration_ms: float = 1.0,
        contention_window_ms: float = 0.5,
        max_slots: int = 2_000_000,
        trace: Optional[TraceLog] = None,
        slot_hook=None,
    ) -> None:
        if slot_duration_ms <= 0:
            raise ConfigurationError(
                f"slot_duration_ms must be positive, got {slot_duration_ms}"
            )
        if not 0 < contention_window_ms <= slot_duration_ms / 2:
            raise ConfigurationError(
                "contention_window_ms must be in (0, slot/2] so that a "
                "fairness wait plus a backoff always fits in one slot; got "
                f"{contention_window_ms} for slot {slot_duration_ms}"
            )
        if max_slots < 1:
            raise ConfigurationError(f"max_slots must be >= 1, got {max_slots}")
        if alpha <= 2.0:
            raise ConfigurationError(f"alpha must be > 2, got {alpha}")
        if eta_s <= 0:
            raise ConfigurationError(f"eta_s must be positive, got {eta_s}")
        if packet_slots < 1:
            raise ConfigurationError(
                f"packet_slots must be >= 1, got {packet_slots}"
            )
        _STRATEGIES = ("random-idle", "sticky", "least-blocked", "adaptive")
        if channel_strategy not in _STRATEGIES:
            raise ConfigurationError(
                f"channel_strategy must be one of {_STRATEGIES}, got "
                f"{channel_strategy!r}"
            )
        if (
            channel_plan is not None
            and channel_plan.num_pus != topology.primary.num_pus
        ):
            raise ConfigurationError(
                f"channel plan covers {channel_plan.num_pus} PUs, topology "
                f"has {topology.primary.num_pus}"
            )
        if fault_plan is None:
            fault_plan = FaultPlan()
        fault_plan.validate_for(
            topology.secondary.su_ids(), topology.secondary.base_station
        )
        stuck_idle = any(event.kind == "stuck-idle" for event in fault_plan)
        #: How PUs block SUs this run: the engine's one seam to it.
        self.spectrum = blocking_model(
            blocking,
            topology,
            sense_map,
            streams,
            homogeneous_p_o=homogeneous_p_o,
            alpha=alpha,
            p_false_alarm=p_false_alarm,
            p_missed_detection=p_missed_detection,
            channel_plan=channel_plan,
            detector=detector,
            stuck_idle=stuck_idle,
        )

        self.topology = topology
        self.sense_map = sense_map
        self.policy = policy
        self.alpha = float(alpha)
        self.eta_s = float(eta_s)
        self.packet_slots = int(packet_slots)
        # Only a node that senses a PU-busy spectrum free can violate PU
        # protection: a missed detection (flat or the detector's) or a
        # detector stuck idle.  Without one the per-transmission check goes.
        self._violations_possible = self.spectrum.can_miss or stuck_idle
        # Onset events per slot; same-slot events apply in authoring order.
        self._fault_onsets = fault_plan.onsets_by_slot()
        #: Window-end events per slot (sensing / link / blackout faults).
        self._fault_expiries: Dict[int, List[FaultEvent]] = {}
        self._has_faults = bool(self._fault_onsets)
        self._dead: set = set()
        # Transient-outage state: each node currently down (powered off,
        # or stranded: detached by a repair, waiting for a parent) mapped
        # to its scheduled rejoin slot and the record of the outage that
        # took it down or stranded it; and buffered arrivals.
        self._down: Dict[int, Tuple[int, FaultRecord]] = {}
        self._deferred_arrivals: Dict[int, List[Packet]] = {}
        # Sensing-fault and link-degradation state (active windows).
        self._stuck_busy: set = set()
        self._stuck_idle: set = set()
        self._link_loss: Dict[Tuple[int, int], float] = {}
        self._bs_blackouts = 0
        self.slot_duration_ms = float(slot_duration_ms)
        self.contention_window_ms = float(contention_window_ms)
        self.max_slots = int(max_slots)
        self.trace = trace
        self.slot_hook = slot_hook

        self._backoff_rng = streams.stream("backoff")

        num_nodes = topology.secondary.num_nodes
        self._num_nodes = num_nodes
        self._positions = topology.secondary.positions
        self._su_power = topology.secondary.power
        self._base_station = topology.secondary.base_station
        self._queues: List[Deque[Packet]] = [deque() for _ in range(num_nodes)]
        # Per-node contention scalars as Python lists: the slot loop reads
        # and writes them one node at a time, which a list does without
        # numpy's per-element dispatch, and Python float arithmetic is
        # float64's, bit for bit.
        self._backoff: List[float] = [0.0] * num_nodes
        self._drawn: List[float] = [0.0] * num_nodes
        self._extra_wait: List[float] = [0.0] * num_nodes
        # Nodes given a fairness wait at the last slot end: the only
        # nonzero entries of _extra_wait, zeroed before the next slot end.
        self._waited: List[int] = []
        self._collision_streak: List[int] = [0] * num_nodes
        self._hold_until_slot: List[int] = [0] * num_nodes
        # Future packet arrivals (continuous-collection workloads), as a
        # heap ordered by birth slot.
        self._pending_arrivals: List[Tuple[int, int, Packet]] = []
        self._arrival_counter = 0
        # Multi-slot transmissions in flight: node -> (receiver, channel,
        # end_slot, expiry_at_start).  Empty whenever packet_slots == 1.
        self._ongoing: Dict[int, Tuple[int, int, int, float]] = {}
        # The nodes contending, each mapped to the slot it became active
        # (its listening span's start, for energy accounting).
        self._active: Dict[int, int] = {}
        # Who may contend, as the mask the per-slot readiness scan reads:
        # the active nodes past their hold-off.  Every add to / discard
        # from _active writes it too, a hold-off start clears the node,
        # and _release_holds sets it again once its release slot is due.
        # _holds is a heap of (release slot, node): every active node
        # still holding off has an entry, and stale entries (the node
        # left, or a later hold-off replaced the window) are dropped when
        # they reach the top.
        self._eligible_mask = np.zeros(num_nodes, dtype=bool)
        self._holds: List[Tuple[int, int]] = []
        # Who hears each SU's transmission, as sets for the per-slot
        # freeze test.
        self._hearers: List[FrozenSet[int]] = [
            frozenset(neighbors) for neighbors in sense_map.su_neighbors
        ]
        # Multi-channel SU state: each node's channel, and the adaptive
        # strategy's per-node, per-channel statistics.
        self.channel_strategy = channel_strategy
        self._num_channels = 1 if channel_plan is None else channel_plan.num_channels
        self._node_channel: List[int] = [0] * num_nodes
        if self._num_channels > 1:
            self._channel_attempts = [
                [0] * self._num_channels for _ in range(num_nodes)
            ]
            self._channel_successes = [
                [0] * self._num_channels for _ in range(num_nodes)
            ]
        # Policy hooks, looked up once.
        self._next_hop = policy.next_hop
        self._fairness_wait = bool(policy.fairness_wait)
        self._on_data_arrival = getattr(policy, "on_data_arrival", None)
        self._on_control_arrival = getattr(policy, "on_control_arrival", None)
        self._slot = 0
        self._started = False

        # Frozen-slot fast-forward: statically eligible scenarios only;
        # dynamic hazards (in-flight packets, fault windows, pinned
        # sensing) are re-checked per attempt in _try_fast_forward.
        self._ff_enabled = slot_hook is None and self.spectrum.fast_forwards
        #: Armed after any slot with nothing on the air; slot 0 always
        #: runs the ordinary loop (it draws the initial PU states).
        self._ff_armed = False
        self._ff_slots = 0
        #: ``(total_s, count)`` per _PHASE_SPANS key, set by _run_loop.
        self._phase_totals: Dict[str, Tuple[float, int]] = {}

        self._result = SimulationResult(
            num_packets=0, slot_duration_ms=self.slot_duration_ms
        )
        # Exposed for the SIR validator: the concurrent set of the last
        # slot, kept up to date only while a slot_hook is installed.
        self.last_slot_su_links: List[Tuple[int, int]] = []
        self.last_slot_su_channels: List[int] = []
        self.last_slot_active_pus: List[int] = []

    # ------------------------------------------------------------------ #
    # Workload loading                                                    #
    # ------------------------------------------------------------------ #

    def load_snapshot(self, packets_per_su: int = 1) -> None:
        """Give every SU ``packets_per_su`` fresh packets (Section III).

        Must be called before :meth:`run`; may be called only once.
        """
        if self._started:
            raise SimulationError("cannot load a workload into a running engine")
        if packets_per_su < 1:
            raise ConfigurationError(
                f"packets_per_su must be >= 1, got {packets_per_su}"
            )
        packet_id = 0
        for node in self.topology.secondary.su_ids():
            for _ in range(packets_per_su):
                self._enqueue(
                    node, Packet(packet_id=packet_id, source=node, birth_slot=0)
                )
                packet_id += 1
            self._activate(node)
        self._result.num_packets = packet_id

    def load_packets(
        self, packets: List[Packet], expected_deliveries: Optional[int] = None
    ) -> None:
        """Load an explicit packet list (sources must be SU node ids).

        ``expected_deliveries`` is how many *data* deliveries complete the
        run; it defaults to the number of data packets in ``packets`` and
        must be given explicitly when the policy injects data packets later
        (e.g. after an on-demand route discovery).

        Packets with ``birth_slot > 0`` are *future arrivals* (continuous
        collection): they enter their source's queue when the simulation
        reaches that slot.
        """
        if self._started:
            raise SimulationError("cannot load a workload into a running engine")
        su_ids = set(self.topology.secondary.su_ids())
        immediate: List[Packet] = []
        for packet in packets:
            if packet.source not in su_ids:
                raise ConfigurationError(
                    f"packet {packet.packet_id} has non-SU source {packet.source}"
                )
            if packet.birth_slot < 0:
                raise ConfigurationError(
                    f"packet {packet.packet_id} has negative birth_slot"
                )
            if packet.birth_slot > 0:
                heapq.heappush(
                    self._pending_arrivals,
                    (packet.birth_slot, self._arrival_counter, packet),
                )
                self._arrival_counter += 1
            else:
                immediate.append(packet)
        if expected_deliveries is None:
            expected_deliveries = sum(1 for packet in packets if packet.is_data)
        if expected_deliveries < 1:
            raise ConfigurationError("expected_deliveries must be >= 1")
        self._result.num_packets = expected_deliveries
        for packet in immediate:
            start = packet.route[packet.route_pos] if packet.route else packet.source
            self._enqueue(start, packet)
            self._activate(start)

    def _enqueue(self, node: int, packet: Packet) -> None:
        """Queue ``packet`` at ``node``, tracking the peak backlog per node
        (the data-accumulation effect)."""
        queue = self._queues[node]
        queue.append(packet)
        peaks = self._result.peak_queue_lengths
        if len(queue) > peaks.get(node, 0):
            peaks[node] = len(queue)

    def _retire(self, node: int) -> int:
        """Remove a node from the network for good; returns lost data packets."""
        if node in self._dead:
            return 0
        self._dead.add(node)
        lost = self._lose(self._queues[node])
        lost += self._lose(self._deferred_arrivals.pop(node, ()))
        self._queues[node].clear()
        self._deactivate(node)
        self._ongoing.pop(node, None)
        self._down.pop(node, None)
        self._stuck_busy.discard(node)
        self._stuck_idle.discard(node)
        return lost

    def _lose(self, packets) -> int:
        """Count the data packets among ``packets`` as lost; returns how many."""
        lost = sum(1 for packet in packets if packet.is_data)
        self._result.packets_lost += lost
        return lost

    def _suspend(self, node: int) -> None:
        """Freeze a node's contention state for transient downtime.

        Unlike :meth:`_retire`, the queue survives (unless the fault said
        to drop it); both close the activity span, so energy accounting
        does not bill the downtime as listening.
        """
        self._deactivate(node)
        self._ongoing.pop(node, None)
        if self.trace is not None:
            self._trace(TraceKind.NODE_DOWN, node)

    def _departure_handler(self, kind: str):
        """The policy hook that repairs the routing structure for ``kind``."""
        if kind == "outage":
            handler = getattr(self.policy, "on_node_outage", None)
            if handler is not None:
                return handler
        handler = getattr(self.policy, "on_node_departure", None)
        if handler is None:
            raise SimulationError(
                f"policy {self.policy.describe()} does not support node "
                f"{kind}s (no on_node_departure hook)"
            )
        return handler

    def _record_fault(self, event: FaultEvent, **fields) -> FaultRecord:
        """Open the result's record of ``event``, applied this slot."""
        record = FaultRecord(event.kind, event.node, self._slot, **fields)
        self._result.fault_records.append(record)
        return record

    def _apply_crash(self, event: FaultEvent) -> None:
        node = event.node
        if node in self._dead:
            return
        record = self._record_fault(event)
        self._result.nodes_departed += 1
        was_down = node in self._down
        lost = self._retire(node)
        if not was_down:
            # A node that was already detached by an earlier fault has no
            # tree presence left to repair.
            handler = self._departure_handler("crash")
            for partitioned in handler(node):
                if partitioned in self._down:
                    # A stranded-but-alive node stays up; it keeps waiting
                    # for a reattachment point.
                    continue
                lost += self._retire(partitioned)
        record.packets_orphaned = lost

    def _apply_outage(self, event: FaultEvent) -> None:
        node = event.node
        if node in self._dead or node in self._down:
            return
        record = self._record_fault(event)
        self._down[node] = (int(event.until), record)
        if event.drop_queue:
            record.packets_orphaned = self._lose(self._queues[node])
            self._queues[node].clear()
        self._suspend(node)
        handler = self._departure_handler("outage")
        for stranded in handler(node):
            if stranded in self._dead or stranded in self._down:
                continue
            # The repair found no parent for this node: it is alive but
            # detached.  It waits (queue intact, arrivals buffered) and
            # retries attachment every slot from the next one on.
            self._down[stranded] = (self._slot + 1, record)
            self._suspend(stranded)

    def _apply_windowed(self, event: FaultEvent) -> None:
        """Activate a sensing, link, or blackout fault window."""
        self._record_fault(event, recovered_slot=int(event.until))
        self._fault_expiries.setdefault(int(event.until), []).append(event)
        if event.kind == "stuck-busy":
            self._stuck_busy.add(event.node)
        elif event.kind == "stuck-idle":
            self._stuck_idle.add(event.node)
        elif event.kind == "link-degradation":
            self._link_loss[(event.node, event.peer)] = 10.0 ** (
                -event.extra_loss_db / 10.0
            )
        else:  # bs-blackout
            self._bs_blackouts += 1

    def _expire_fault(self, event: FaultEvent) -> None:
        if event.kind == "stuck-busy":
            self._stuck_busy.discard(event.node)
        elif event.kind == "stuck-idle":
            self._stuck_idle.discard(event.node)
        elif event.kind == "link-degradation":
            self._link_loss.pop((event.node, event.peer), None)
        elif event.kind == "bs-blackout":
            self._bs_blackouts = max(self._bs_blackouts - 1, 0)

    def _complete_rejoin(self, node: int) -> None:
        """A down node re-attached to the routing structure: bring it back."""
        _, record = self._down.pop(node)
        self._result.nodes_recovered += 1
        if record.node == node:
            # Its own outage ends; a stranded node's record is another's.
            record.recovered_slot = self._slot
        if self.trace is not None:
            self._trace(TraceKind.NODE_REJOIN, node)
        for packet in self._deferred_arrivals.pop(node, []):
            self._enqueue(node, packet)
        if self._queues[node]:
            self._activate(node)

    def _attempt_rejoins(self) -> None:
        """Re-attach every due node; cascades within the slot.

        A wave-by-wave loop lets a whole stranded subtree reconnect in the
        recovery slot: once the recovered node is back on the backbone,
        its former descendants find parents in later waves.

        Attachment points only come back when some down node rejoins.  So
        when every waiting node is due, none of them attached, and no
        recovery is scheduled for a later slot, the waiting nodes are cut
        off for good: they retire, and their data counts as lost and as
        orphaned by the outage that took them down or stranded them.
        """
        due = sorted(
            node
            for node, (at_slot, _) in self._down.items()
            if at_slot <= self._slot and node not in self._dead
        )
        if not due:
            return
        handler = getattr(self.policy, "on_node_rejoin", None)
        if handler is None:
            raise SimulationError(
                f"policy {self.policy.describe()} does not support transient "
                "outages (no on_node_rejoin hook)"
            )
        progress = True
        while due and progress:
            progress = False
            waiting: List[int] = []
            for node in due:
                if handler(node):
                    self._complete_rejoin(node)
                    progress = True
                else:
                    waiting.append(node)
            due = waiting
        if due and all(at <= self._slot for at, _ in self._down.values()):
            for node in due:
                _, record = self._down[node]
                record.packets_orphaned += self._retire(node)

    def _abort_doomed_transmissions(self) -> None:
        """Abort in-flight transmissions aimed at nodes that just went away.

        A packet flying toward a *dead* receiver is unrecoverable: it is
        dropped from the sender's queue, counted in ``packets_lost``, and
        attributed to the receiver's fault record, so the delivery books
        balance.  A packet aimed at a *down-but-recovering* receiver stays
        queued — the repaired routing structure gives it a new next hop.
        """
        if not self._ongoing:
            return
        doomed = [
            (sender, receiver)
            for sender, (receiver, _, _, _) in self._ongoing.items()
            if receiver in self._dead or receiver in self._down
        ]
        records = {
            record.node: record
            for record in self._result.fault_records
            if record.slot == self._slot
        }
        for sender, receiver in doomed:
            del self._ongoing[sender]
            if receiver in self._dead:
                packet = self._queues[sender].popleft()
                record = records.get(receiver)
                if self._lose([packet]) and record is not None:
                    record.packets_orphaned += 1
                if self.trace is not None:
                    self._trace(
                        TraceKind.TX_ABORT,
                        sender,
                        peer=receiver,
                        packet_id=packet.packet_id,
                    )
            if self._queues[sender]:
                self._draw_backoff(sender)
            else:
                self._deactivate(sender)

    def _process_faults(self) -> None:
        """Apply this slot's fault expiries, onsets, and rejoin attempts."""
        for event in self._fault_expiries.pop(self._slot, ()):
            self._expire_fault(event)
        onsets = self._fault_onsets.pop(self._slot, ())
        for event in onsets:
            if event.kind == "crash":
                self._apply_crash(event)
            elif event.kind == "outage":
                self._apply_outage(event)
            else:
                self._apply_windowed(event)
        if onsets:
            self._abort_doomed_transmissions()
        if self._down:
            self._attempt_rejoins()

    def _inject_arrivals(self) -> None:
        """Move due future arrivals into their source queues."""
        while self._pending_arrivals and (
            self._pending_arrivals[0][0] <= self._slot
        ):
            _, _, packet = heapq.heappop(self._pending_arrivals)
            start = packet.route[packet.route_pos] if packet.route else packet.source
            if start in self._dead:
                self._lose([packet])
                continue
            if start in self._down:
                # Down-but-recovering source: hold the sample until the
                # node rejoins instead of losing it.
                self._deferred_arrivals.setdefault(start, []).append(packet)
                self._result.arrivals_deferred += 1
                continue
            self._enqueue(start, packet)
            self._activate(start)

    # ------------------------------------------------------------------ #
    # Core loop                                                           #
    # ------------------------------------------------------------------ #

    def run(self) -> SimulationResult:
        """Run until every packet is delivered or ``max_slots`` elapse."""
        if self._result.num_packets == 0:
            raise SimulationError("no workload loaded; call load_snapshot() first")
        if self._started:
            raise SimulationError("engine instances are single-use")
        self._started = True
        with obs.span("engine.run"):
            result = self._run_loop()
        if obs.enabled():
            self._publish_metrics(result)
        return result

    def _run_loop(self) -> SimulationResult:
        """The slot loop proper (split out of :meth:`run` for profiling).

        Each executed slot runs the phases of the module docstring in
        order.  Their durations go into local accumulators at the phase
        boundaries, one clock read each, and land in ``_phase_totals`` at
        the end; the clock never feeds simulation state.  A spectrum
        handoff counts as sensing, and the on-air bookkeeping of
        multi-slot packets as adjudication.
        """
        clock = obs.monotonic_s
        result = self._result
        slot_s = pu_redraw_s = sensing_s = backoff_s = 0.0
        adjudicate_s = deliver_s = frozen_wait_s = fast_forward_s = 0.0
        executed = delivering = ff_attempts = 0
        # result.delivered is len(result.deliveries), which only grows.
        deliveries = result.deliveries
        while len(deliveries) + result.packets_lost < result.num_packets:
            if self._slot >= self.max_slots:
                break
            if self._ff_armed:
                start = clock()
                self._try_fast_forward()
                fast_forward_s += clock() - start
                ff_attempts += 1
                if self._slot >= self.max_slots:
                    continue
            start = clock()
            if self._has_faults:
                self._process_faults()
            if self._pending_arrivals:
                self._inject_arrivals()
            mark = clock()
            self.spectrum.advance(initial=not self._slot)
            now = clock()
            pu_redraw_s += now - mark
            mark = now
            if self.packet_slots > 1:
                self._handoff_check()
            ready = self._sense_ready()
            now = clock()
            sensing_s += now - mark
            mark = now
            if ready or self._ongoing:
                transmitters = self._resolve_freezes(ready)
                now = clock()
                backoff_s += now - mark
                mark = now
                completing, concurrent = self._on_air(transmitters)
                outcomes = self._adjudicate(completing, concurrent)
                now = clock()
                adjudicate_s += now - mark
                mark = now
            else:
                # Nobody ready and nothing on the air: no freezes to
                # resolve, nothing to adjudicate.
                completing = outcomes = concurrent = []
            self._finish_slot(completing, outcomes, concurrent)
            now = clock()
            if completing:
                deliver_s += now - mark
                delivering += 1
            else:
                frozen_wait_s += now - mark
            if self.slot_hook is not None:
                self.slot_hook(self)
                now = clock()
            slot_s += now - start
            executed += 1
            self._slot += 1

        result.completed = (
            result.delivered + result.packets_lost >= result.num_packets
        )
        result.slots_simulated = self._slot
        # A run cut by max_slots ends with nodes still contending: their
        # spans close at the last simulated slot.
        for node in sorted(self._active):
            self._deactivate(node, self._slot - 1)
        self._phase_totals = {
            "slot": (slot_s, executed),
            "pu_redraw": (pu_redraw_s, executed),
            "sensing": (sensing_s, executed),
            "backoff": (backoff_s, executed),
            "adjudicate": (adjudicate_s, executed),
            "deliver": (deliver_s, delivering),
            "frozen_wait": (frozen_wait_s, executed - delivering),
            "fast_forward": (fast_forward_s, ff_attempts),
        }
        return result

    def _publish_metrics(self, result: SimulationResult) -> None:
        """Publish one run's headline outcomes to the installed recorder.

        Read-only over ``result`` and never touches an RNG stream, so the
        simulation is bit-identical with or without a recorder.
        """
        obs.counter_add("engine.runs")
        obs.counter_add("engine.slots", result.slots_simulated)
        obs.counter_add("engine.tx_attempts", result.total_transmissions)
        obs.counter_add("engine.collisions", result.collisions)
        obs.counter_add("engine.deliveries", result.delivered)
        obs.counter_add("engine.packets_lost", result.packets_lost)
        obs.counter_add("engine.handoffs", result.handoffs)
        obs.counter_add("engine.pu_violations", result.pu_violations)
        obs.counter_add("engine.frozen_slots", result.frozen_slot_count)
        obs.counter_add("engine.fastforward_slots", self._ff_slots)
        obs.counter_add("engine.fault_events", result.fault_event_count)
        obs.gauge_set("engine.max_backlog", result.max_backlog)
        for record in result.deliveries:
            obs.observe("engine.packet_delay_slots", record.delay_slots)
        for key, (total_s, count) in self._phase_totals.items():
            if count:
                obs.span_add(_PHASE_SPANS[key], total_s, count)

    # ------------------------------------------------------------------ #
    # Frozen-slot fast-forward                                            #
    # ------------------------------------------------------------------ #

    def _try_fast_forward(self) -> None:
        """Advance over a maximal run of provably frozen slots in one step.

        Called only when armed (the previous slot put nothing on the air).
        The *horizon* is the first slot at which anything but a frozen wait
        could happen: a hold-off ends (the top of ``_holds`` once due and
        stale entries are popped), an arrival is born, or a fault fires.
        Before it the waiters (``_eligible_mask``) are fixed, so a slot is
        frozen exactly when each senses busy, which the spectrum process
        scans for (``frozen_prefix``), taking exactly the skipped rows.
        """
        slot = self._slot
        if (
            slot == 0
            or self._ongoing
            or self._down
            or self._stuck_busy
            or self._stuck_idle
        ):
            return
        horizon = self.max_slots
        if self._fault_onsets:
            horizon = min(horizon, min(self._fault_onsets))
        if self._fault_expiries:
            horizon = min(horizon, min(self._fault_expiries))
        if self._pending_arrivals:
            horizon = min(horizon, int(self._pending_arrivals[0][0]))
        # The last executed slot's sensing left a pending top, and a slot
        # with nothing on the air starts or ends no hold-off: the top is
        # stale never, and due only when it releases in this very slot.
        holds = self._holds
        if holds and holds[0][0] <= slot:
            self._release_holds()
        if holds:
            horizon = min(horizon, holds[0][0])
        if horizon <= slot:
            return
        waiters = self._eligible_mask.nonzero()[0]
        skipped = self.spectrum.frozen_prefix(waiters, horizon - slot)
        if skipped == 0:
            return
        self._ff_slots += skipped
        self._slot = slot + skipped
        # Per-slot bookkeeping of a frozen wait, applied in bulk: each
        # skipped slot counted every eligible waiter as frozen-by-PU.
        # There is no fairness carry-over to zero: arming needs a slot
        # with nothing on the air, and that slot end gave no wait.
        self._result.frozen_slot_count += skipped * waiters.size

    # ------------------------------------------------------------------ #
    # SU contention                                                       #
    # ------------------------------------------------------------------ #

    def _activate(self, node: int) -> None:
        """Node gained traffic: draw a backoff if it was idle."""
        if node in self._active:
            return
        self._active[node] = self._slot
        release = self._hold_until_slot[node]
        if release <= self._slot:
            self._eligible_mask[node] = True
        else:
            # Its hold-off entry may have been dropped while it was away.
            heapq.heappush(self._holds, (release, node))
        self._draw_backoff(node)

    def _draw_backoff(self, node: int) -> None:
        # Uniform over (0, tau_c]: invert the half-open side of random().
        value = self.contention_window_ms * (1.0 - float(self._backoff_rng.random()))
        self._backoff[node] = value
        self._drawn[node] = value
        if self.trace is not None:
            self._trace(TraceKind.BACKOFF_DRAW, node, time_in_slot=value)
        if self._num_channels > 1:
            self._node_channel[node] = self._pick_channel(node)

    def _pick_channel(self, node: int) -> int:
        """Retune ``node`` per the configured channel strategy."""
        busy = self.spectrum.busy_channels(node)
        free = [c for c in range(self._num_channels) if not busy[c]]
        pool = free if free else list(range(self._num_channels))
        strategy = self.channel_strategy
        if strategy == "sticky":
            current = self._node_channel[node]
            if current in pool:
                return current
            strategy = "random-idle"
        if strategy != "random-idle":
            # Keep the best-scoring channels of the pool, ties randomly.
            if strategy == "least-blocked":
                loads = self.spectrum.channel_loads
                scores = {c: -loads[c][node] for c in pool}
            else:  # adaptive: success per attempt, optimistic when untried
                attempts = self._channel_attempts[node]
                successes = self._channel_successes[node]
                scores = {
                    c: successes[c] / attempts[c] if attempts[c] else 1.0
                    for c in pool
                }
            best = max(scores.values())
            pool = [c for c in pool if scores[c] == best]
        return pool[int(self._backoff_rng.integers(0, len(pool)))]

    def _sense_ready(self) -> List[Tuple[float, int]]:
        """This slot's ready nodes as ``(expiry, node)``, in expiry order.

        A node is ready when it is backlogged, past its hold-off, not
        mid-transmission, and senses its spectrum free.  Equal expiries
        keep ascending node order: the ``(expiry, node)`` key.  Only the
        eligible nodes sense, so only their busy states are computed.
        """
        self._release_holds()
        if not self._active:
            return []
        eligible = self._eligible_mask
        ongoing = self._ongoing
        if ongoing:
            # Mid-transmission nodes (multi-slot packets) sit out.
            eligible = eligible.copy()
            eligible[
                np.fromiter(ongoing.keys(), dtype=np.int64, count=len(ongoing))
            ] = False
        # Every step below is elementwise over the ascending eligible
        # indices, so no container iteration order can leak into results.
        idx = eligible.nonzero()[0]
        if not idx.size:
            return []
        channels = None
        if self._num_channels > 1:
            channels = [self._node_channel[node] for node in idx.tolist()]
        sensed = self.spectrum.sense(idx, channels)
        # Sensing faults pin the detector output, consuming no draws; a
        # node under both faults senses busy (stuck-busy wins).
        if self._stuck_idle:
            sensed = sensed & ~np.isin(idx, list(self._stuck_idle))
        if self._stuck_busy:
            sensed = sensed | np.isin(idx, list(self._stuck_busy))
        ready_nodes = idx[~sensed].tolist()
        count = len(ready_nodes)
        result = self._result
        result.frozen_slot_count += idx.size - count
        if not count:
            return []
        result.opportunity_slot_count += count
        result.contention_slot_count += 1
        extra_wait = self._extra_wait
        backoff = self._backoff
        if count == 1:
            node = ready_nodes[0]
            return [(extra_wait[node] + backoff[node], node)]
        return sorted(
            [(extra_wait[node] + backoff[node], node) for node in ready_nodes]
        )

    def _resolve_freezes(
        self, ready: List[Tuple[float, int]]
    ) -> List[Tuple[float, int, int, int]]:
        """Run the slot's countdowns in expiry order; return the winners.

        A ready node freezes when a transmission on its channel that it
        hears started no later than its expiry; otherwise it transmits.
        Returns ``(expiry, node, receiver, channel)`` tuples; the channel
        is always 0 in the single-channel model.
        """
        if not ready:
            return []
        hearers = self._hearers
        node_channel = self._node_channel
        extra_wait = self._extra_wait
        backoff = self._backoff
        trace = self.trace
        # Transmissions on the air, by start time: those still in flight
        # from earlier slots hold their hearers from the slot's start, and
        # each winner is appended at its expiry.  Every entry therefore
        # starts no later than the ready node being tested, and the first
        # entry that node hears is the earliest transmission blocking it.
        on_air: List[Tuple[float, int, FrozenSet[int]]] = [
            (0.0, channel, hearers[node])
            for node, (_, channel, _, _) in self._ongoing.items()
        ]
        transmitters: List[Tuple[float, int, int, int]] = []
        for expiry, node in ready:
            channel = node_channel[node]
            block_time = None
            for start, on_channel, heard_by in on_air:
                if on_channel == channel and node in heard_by:
                    block_time = start
                    break
            if block_time is not None:
                # Frozen mid-countdown (lines 6-7): keep the remainder.
                consumed = max(0.0, block_time - extra_wait[node])
                backoff[node] = max(backoff[node] - consumed, 1e-12)
                if trace is not None:
                    self._trace(TraceKind.FREEZE, node, time_in_slot=block_time)
                continue

            packet = self._queues[node][0]
            receiver = self._next_hop(node, packet)
            transmitters.append((expiry, node, receiver, channel))
            on_air.append((expiry, channel, hearers[node]))
            if trace is not None:
                self._trace(
                    TraceKind.TX_START,
                    node,
                    peer=receiver,
                    packet_id=packet.packet_id,
                    time_in_slot=expiry,
                )
        return transmitters

    def _adjudicate(
        self,
        completing: List[Tuple[float, int, int, int]],
        concurrent: List[Tuple[float, int, int, int]],
    ) -> List[bool]:
        """Physical-model outcome for the transmissions completing this slot.

        A link succeeds iff (a) no stronger concurrent signal targets its
        receiver (single-radio capture, RS mode; of equal signals the
        first link wins) and (b) its SIR over all other concurrent SU
        transmitters plus all active PUs, from :meth:`_link_budget`, meets
        ``eta_s``.

        ``concurrent`` lists every transmission on the air during the slot
        (multi-slot packets still in flight included); with single-slot
        packets it is ``completing`` itself.
        """
        if not completing:
            return []
        count = len(concurrent)
        if count == 1 and not self.spectrum.active_pus.size:
            # A lone transmitter with no active PU: the capture rule
            # holds trivially and the interference sum is exactly
            # zero, so the SIR is +inf regardless of signal strength —
            # success either way.  This is the overwhelmingly common
            # slot shape (homogeneous blocking never activates a PU).
            return [True]
        _, tx_nodes, rx_nodes, channels = zip(*concurrent)
        signal, interference = self._link_budget(tx_nodes, rx_nodes, channels)
        eta_s = self.eta_s
        # No interference at all is an infinite SIR.
        success = [
            noise <= 0.0 or power / noise >= eta_s
            for power, noise in zip(signal, interference)
        ]
        if len(set(rx_nodes)) < count:
            # Capture rule: among links sharing a receiver, only the
            # strongest signal can be decoded.
            strongest: Dict[int, int] = {}
            for index, receiver in enumerate(rx_nodes):
                best = strongest.get(receiver)
                if best is None or signal[index] > signal[best]:
                    strongest[receiver] = index
            for index, receiver in enumerate(rx_nodes):
                if strongest[receiver] != index:
                    success[index] = False
        if completing is concurrent:
            return success
        index_of = {node: index for index, (_, node, _, _) in enumerate(concurrent)}
        return [success[index_of[node]] for _, node, _, _ in completing]

    def _link_budget(
        self,
        tx_nodes: Tuple[int, ...],
        rx_nodes: Tuple[int, ...],
        channels: Tuple[int, ...],
    ) -> Tuple[List[float], List[float]]:
        """``(signal, interference)`` at each concurrent link's receiver,
        for links given as columns: transmitters, receivers, channels.

        The engine's one definition of an SU gain: ``su_power * s **
        (-alpha / 2)`` over the squared distance ``s``, clamped at
        ``MIN_DISTANCE ** 2``, in plain-Python float arithmetic, which
        IEEE 754 and libm fix whatever SIMD level numpy dispatches to.
        Each receiver sums its same-channel SU interference one term at a
        time in index order.  The spectrum process's PU interference
        (numpy, ``sum(axis=1)`` over a C-contiguous row) is added last.
        """
        count = len(tx_nodes)
        points = self._positions.take(rx_nodes + tx_nodes, axis=0)
        coords = points.tolist()
        senders = list(enumerate(coords[count:]))
        groups: Iterable[List[Tuple[int, List[float]]]] = [senders]
        if self._num_channels > 1:
            # Only same-channel transmitters interfere: one pass per
            # channel, each over its links in index order.
            by_channel: Dict[int, List[Tuple[int, List[float]]]] = {}
            for sender, channel in zip(senders, channels):
                by_channel.setdefault(channel, []).append(sender)
            groups = by_channel.values()

        exponent = -0.5 * self.alpha
        power = self._su_power
        floor = _MIN_SQUARED_DISTANCE
        signal = [0.0] * count
        interference = [0.0] * count
        for group in groups:
            for index, _ in group:
                x, y = coords[index]
                # Not sum(): from Python 3.12 it compensates float rounding.
                noise = 0.0
                for other, (tx, ty) in group:
                    dx = x - tx
                    dy = y - ty
                    squared = dx * dx + dy * dy
                    if squared < floor:
                        squared = floor
                    gain = power * squared ** exponent
                    if other == index:
                        signal[index] = gain
                    else:
                        noise += gain
                interference[index] = noise
        if self._link_loss:
            # Link-degradation faults: extra path loss on specific directed
            # links weakens the *signal* only (interference terms keep
            # their free-space power), so the link's SIR margin shrinks.
            for index in range(count):
                factor = self._link_loss.get((tx_nodes[index], rx_nodes[index]))
                if factor is not None:
                    signal[index] *= factor

        # Every active *same-channel* PU adds to the interference last.
        if self.spectrum.active_pus.size:
            pu_terms = self.spectrum.pu_interference(points[:count], channels)
            interference = [su + pu for su, pu in zip(interference, pu_terms)]
        return signal, interference

    def _handoff_check(self) -> None:
        """Abort in-flight transmissions whose channel a PU has reclaimed.

        Section I's spectrum-handoff rule: the SU vacates immediately, the
        packet stays queued, and the node re-contends once the spectrum
        frees up again (a fresh backoff draw).
        """
        aborted = [
            node
            for node, (_, channel, _, _) in self._ongoing.items()
            if self.spectrum.busy_channels(node)[channel]
        ]
        for node in aborted:
            del self._ongoing[node]
            self._result.handoffs += 1
            self._draw_backoff(node)

    def _on_air(
        self, new_transmitters: List[Tuple[float, int, int, int]]
    ) -> Tuple[List[Tuple[float, int, int, int]], List[Tuple[float, int, int, int]]]:
        """``(completing, concurrent)`` transmissions of this slot.

        With single-slot packets both are the slot's winners; longer
        packets stay on the air and complete ``packet_slots`` slots later.
        """
        if self.packet_slots == 1:
            return new_transmitters, new_transmitters
        end_slot = self._slot + self.packet_slots - 1
        for expiry, node, receiver, channel in new_transmitters:
            self._ongoing[node] = (receiver, channel, end_slot, expiry)
        concurrent = [
            (expiry, node, receiver, channel)
            for node, (receiver, channel, _, expiry) in self._ongoing.items()
        ]
        completing = [tx for tx in concurrent if self._ongoing[tx[1]][2] == self._slot]
        for _, node, _, _ in completing:
            del self._ongoing[node]
        return completing, concurrent

    def _finish_slot(
        self,
        completing: List[Tuple[float, int, int, int]],
        outcomes: List[bool],
        concurrent: List[Tuple[float, int, int, int]],
    ) -> None:
        # Slot end: the concurrent set for the validator, deliveries,
        # fairness waits, backoff redraws.
        if self.slot_hook is not None:
            self.last_slot_su_links = [
                (node, receiver) for _, node, receiver, _ in concurrent
            ]
            self.last_slot_su_channels = [
                channel for _, _, _, channel in concurrent
            ]
            self.last_slot_active_pus = self.spectrum.active_pus.tolist()
        if concurrent:
            count = len(concurrent)
            histogram = self._result.concurrent_tx_histogram
            histogram[count] = histogram.get(count, 0) + 1
        # A slot with nothing on the air arms the fast-forward: the next
        # slots are frozen candidates until someone transmits again.
        self._ff_armed = self._ff_enabled and not concurrent
        if self._waited:
            self._clear_fairness_waits()
        if not completing:
            return
        result = self._result
        queues = self._queues
        trace = self.trace
        extra_wait = self._extra_wait
        waited = self._waited
        multichannel = self._num_channels > 1

        newly_active: List[int] = []
        finished_nodes: List[int] = []
        for (_, node, receiver, channel), success in zip(completing, outcomes):
            result.tx_attempts[node] = result.tx_attempts.get(node, 0) + 1
            if multichannel:
                self._channel_attempts[node][channel] += 1
                if success:
                    self._channel_successes[node][channel] += 1
            if self._violations_possible and self.spectrum.busy_channels(node)[channel]:
                # A missed detection or a stuck-idle detector let this node
                # transmit into an active PU inside its protection range.
                result.pu_violations += 1
            # A base-station blackout fails the delivery regardless of SIR:
            # the sink is not listening.  It is *not* a collision (ADDC's
            # collision-free property is about contention).
            blackout = self._bs_blackouts > 0 and receiver == self._base_station
            if blackout or not success:
                # The packet stays queued and is retransmitted after an
                # exponentially growing random hold-off (the paper's
                # footnote 2), as after a hidden-terminal collision or a
                # capture loss.
                if blackout:
                    result.blackout_failures += 1
                else:
                    result.collisions += 1
                self._start_hold_off(node)
                if trace is not None:
                    self._trace(
                        TraceKind.TX_ABORT if blackout else TraceKind.TX_COLLISION,
                        node,
                        peer=receiver,
                    )
            else:
                self._collision_streak[node] = 0
                packet = queues[node].popleft()
                packet.hops += 1
                if packet.route is not None:
                    packet.route_pos += 1
                result.tx_successes[node] = (
                    result.tx_successes.get(node, 0) + 1
                )
                result.rx_successes[receiver] = (
                    result.rx_successes.get(receiver, 0) + 1
                )
                if trace is not None:
                    self._trace(
                        TraceKind.TX_SUCCESS,
                        node,
                        peer=receiver,
                        packet_id=packet.packet_id,
                    )
                for new_packet in self._deliver(packet, node, receiver):
                    self._enqueue(receiver, new_packet)
                    if receiver not in self._active:
                        newly_active.append(receiver)

            if self._fairness_wait:
                extra_wait[node] = self.contention_window_ms - self._drawn[node]
                waited.append(node)
            if queues[node]:
                self._draw_backoff(node)
            else:
                finished_nodes.append(node)

        for node in finished_nodes:
            if queues[node]:
                # A later same-slot transmission (possible on another
                # channel) delivered into this node after it drained its
                # own queue: it stays active with a fresh backoff.
                self._draw_backoff(node)
            else:
                self._deactivate(node)
        for node in newly_active:
            self._activate(node)

    def _deliver(self, packet: Packet, node: int, receiver: int) -> List[Packet]:
        """Hand a decoded ``packet`` to ``receiver``; return what it queues.

        A data packet at its destination is recorded as delivered and
        queues nothing.  A control packet at its route's end goes to the
        policy (an RREQ answered with an RREP, a data packet released on
        RREP arrival), and an aggregating policy absorbs relayed data and
        decides what the relay forwards.  Any other packet is relayed.
        """
        if packet.route is not None:
            # Routed packets (unicast flows, control traffic) arrive only
            # at their route's final node — possibly a plain SU, possibly
            # the base station acting as a relay mid-route.
            arrived = packet.at_route_end
        else:
            arrived = receiver == self._base_station
        if packet.is_data and arrived:
            self._result.deliveries.append(
                PacketRecord(
                    packet_id=packet.packet_id,
                    source=packet.source,
                    birth_slot=packet.birth_slot,
                    delivered_slot=self._slot,
                    hops=packet.hops,
                )
            )
            if self.trace is not None:
                self._trace(
                    TraceKind.DELIVERY,
                    receiver,
                    peer=node,
                    packet_id=packet.packet_id,
                )
            return []
        if packet.route is not None and arrived:
            handler = self._on_control_arrival
            return handler(packet, receiver) if handler else []
        if self._on_data_arrival is not None and packet.is_data:
            return self._on_data_arrival(packet, receiver)
        return [packet]

    def _deactivate(self, node: int, last_slot: Optional[int] = None) -> None:
        """``node`` stops contending: the one exit from the active set.

        Its listening span (energy accounting) closes, covering its
        activation slot through ``last_slot`` (default: this slot) and
        accumulating over re-activations, and its contention state
        clears.  A drained queue, a suspension, an abort, a retirement and
        the end of a capped run all leave through here.
        """
        first = self._active.pop(node, None)
        if first is None:
            return
        last = self._slot if last_slot is None else last_slot
        spans = self._result.active_slot_spans
        spans[node] = spans.get(node, 0) + last - first + 1
        self._eligible_mask[node] = False
        self._extra_wait[node] = 0.0

    def _trace(self, kind: TraceKind, node: int, **fields) -> None:
        """Record a ``kind`` event at this slot; callers check
        ``self.trace`` first, so untraced runs make no call."""
        self.trace.record(
            TraceEvent(slot=self._slot, kind=kind, node=node, **fields)
        )

    def _clear_fairness_waits(self) -> None:
        """Zero the fairness waits the last slot end gave out.

        Those nodes hold the only nonzero waits: retiring, suspending or
        aborting a node zeroes its own, so a full-width fill is not needed.
        """
        extra_wait = self._extra_wait
        for node in self._waited:
            extra_wait[node] = 0.0
        self._waited.clear()

    def _start_hold_off(self, node: int) -> None:
        """Hold ``node`` off for a random number of slots (footnote 2).

        The window grows binary-exponentially with the node's failure
        streak, capped at ``2 ** MAX_BACKOFF_EXPONENT`` slots.
        """
        streak = min(self._collision_streak[node] + 1, MAX_BACKOFF_EXPONENT)
        self._collision_streak[node] = streak
        release = self._slot + 1 + int(self._backoff_rng.integers(0, 1 << streak))
        self._hold_until_slot[node] = release
        self._eligible_mask[node] = False
        heapq.heappush(self._holds, (release, node))

    def _release_holds(self) -> None:
        """Make nodes whose hold-off ends by this slot eligible again.

        Pops due entries and stale ones (the node is inactive or holds
        off until another slot) from the top of ``_holds``, so afterwards
        the top, if any, is the earliest pending release.
        """
        holds = self._holds
        slot = self._slot
        while holds:
            release, node = holds[0]
            pending = node in self._active and self._hold_until_slot[node] == release
            if pending and release > slot:
                return
            heapq.heappop(holds)
            if pending:
                self._eligible_mask[node] = True

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    @property
    def slot(self) -> int:
        """The next slot index to be simulated."""
        return self._slot

    @property
    def fastforward_slots(self) -> int:
        """Slots advanced by the frozen-slot fast-forward.

        Pure telemetry (also published as ``engine.fastforward_slots``):
        deliberately *not* part of :class:`SimulationResult`, so results
        compare equal between fast-forwarded and slot-by-slot runs.
        """
        return self._ff_slots

    def rng_positions(self) -> Dict[str, str]:
        """Stable fingerprints of the engine's RNG stream states.

        One BLAKE2b digest per consumed stream over the serialized
        bit-generator state; a row-buffered stream reports its state after
        the rows taken, not the rows drawn ahead.  Two runs that drew the
        same values in the same order end with equal fingerprints, so the
        parallel-executor determinism tests can assert "same draws" without
        shipping whole generator states around.
        """
        import hashlib
        import json

        fingerprints: Dict[str, str] = {}
        states = self.spectrum.stream_states()
        for name, state in (
            ("pu-activity", states["pu-activity"]),
            ("backoff", self._backoff_rng.bit_generator.state),
            ("sensing-errors", states["sensing-errors"]),
        ):
            state = json.dumps(state, sort_keys=True, default=int)
            fingerprints[name] = hashlib.blake2b(
                state.encode("utf-8"), digest_size=8
            ).hexdigest()
        return fingerprints

    def fairness_waits(self) -> np.ndarray:
        """Each node's fairness wait (ms) into the next slot, as a copy."""
        return np.array(self._extra_wait)

    def queue_length(self, node: int) -> int:
        """Current queue length at a node (for tests and live inspection)."""
        return len(self._queues[node])

    def total_queued(self) -> int:
        """Packets currently queued anywhere in the secondary network."""
        return sum(len(queue) for queue in self._queues)
