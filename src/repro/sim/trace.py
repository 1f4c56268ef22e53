"""In-memory event trace for debugging and for behavioural tests.

The fairness test for Theorem 1's property :math:`\\mathfrak P` ("before
s_i transmits once, a PCR neighbour transmits at most twice") needs the
exact transmission order, which the trace records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional

__all__ = ["TraceKind", "TraceEvent", "TraceLog"]


class TraceKind(Enum):
    """Event categories emitted by the engine."""

    TX_START = "tx_start"
    TX_SUCCESS = "tx_success"
    TX_COLLISION = "tx_collision"
    TX_ABORT = "tx_abort"
    DELIVERY = "delivery"
    FREEZE = "freeze"
    BACKOFF_DRAW = "backoff_draw"
    NODE_DOWN = "node_down"
    NODE_REJOIN = "node_rejoin"


@dataclass(frozen=True)
class TraceEvent:
    """One engine event.

    ``time_in_slot`` is the continuous offset (ms) within the slot for
    transmission starts; slot-end events carry ``None``.
    """

    slot: int
    kind: TraceKind
    node: int
    peer: Optional[int] = None
    packet_id: Optional[int] = None
    time_in_slot: Optional[float] = None


class TraceLog:
    """Append-only in-memory event log.

    For long-run capture, stream to disk with
    :class:`repro.obs.NdjsonTraceWriter` instead.
    """

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        """Append one event."""
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __repr__(self) -> str:
        return f"TraceLog(events={len(self._events)})"

    def of_kind(self, kind: TraceKind) -> List[TraceEvent]:
        """All recorded events of one kind, in order."""
        return [event for event in self._events if event.kind is kind]

    def for_node(self, node: int) -> List[TraceEvent]:
        """All recorded events touching one node, in order.

        "Touching" covers both roles: events the node emitted
        (``event.node``) and events where it is the counterparty
        (``event.peer`` — e.g. the receiver of a ``TX_START`` or the
        transmitter behind a ``DELIVERY``).
        """
        return [
            event
            for event in self._events
            if event.node == node or event.peer == node
        ]
