"""Versioned NDJSON traces of engine events (schema ``trace/v1``).

One JSON object per line: a header first, then one object per
:class:`~repro.sim.trace.TraceEvent`, then a closing footer carrying the
totals.  :class:`NdjsonTraceWriter` streams events to disk as they
happen, so a long run's trace is not held in memory, and ``grep``/``jq``
work on the artifact directly.

Line shapes::

    {"schema": "trace/v1", "streamed": true}
    {"kind": "tx_start", "node": 3, "packet_id": 1, "peer": 0, "slot": 0, "t": 0.41}
    ...
    {"events": 124, "footer": true, "schema": "trace/v1"}

Event fields with ``None`` values are omitted from the line; ``t`` is
``time_in_slot``.  :func:`load_trace` reads a file back into a
:class:`~repro.sim.trace.TraceLog`; :func:`trace_stats` summarizes one
without building event objects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.tracing import iter_spans, iter_trace_records, span_stats
from repro.sim.trace import TraceEvent, TraceKind, TraceLog

__all__ = [
    "TRACE_SCHEMA",
    "event_to_dict",
    "event_from_dict",
    "load_trace",
    "trace_stats",
    "NdjsonTraceWriter",
]

TRACE_SCHEMA = "trace/v1"


def event_to_dict(event: TraceEvent) -> Dict:
    """The NDJSON line object for one event (``None`` fields omitted)."""
    line: Dict = {"slot": event.slot, "kind": event.kind.value, "node": event.node}
    if event.peer is not None:
        line["peer"] = event.peer
    if event.packet_id is not None:
        line["packet_id"] = event.packet_id
    if event.time_in_slot is not None:
        line["t"] = event.time_in_slot
    return line


def event_from_dict(line: Dict) -> TraceEvent:
    """Rebuild a :class:`TraceEvent` from its NDJSON line object."""
    try:
        kind = TraceKind(line["kind"])
        return TraceEvent(
            slot=int(line["slot"]),
            kind=kind,
            node=int(line["node"]),
            peer=line.get("peer"),
            packet_id=line.get("packet_id"),
            time_in_slot=line.get("t"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ObservabilityError(f"bad trace event record {line!r}: {exc}") from exc


def _check_header(path: Union[str, Path], header: Dict) -> None:
    """Refuse any header but ``trace/v1``'s, naming both schemas."""
    schema = header.get("schema")
    if schema == "trace/v2":
        raise ObservabilityError(
            f"trace file {path} has schema 'trace/v2' "
            f"(job spans), expected {TRACE_SCHEMA!r} "
            "(simulator events); load it with "
            "repro.obs.tracing.load_spans / "
            "`addc-repro trace tree` instead"
        )
    if schema != TRACE_SCHEMA:
        raise ObservabilityError(
            f"trace file {path} has schema {schema!r}, expected {TRACE_SCHEMA!r}"
        )


def _events(
    path: Union[str, Path], header: Dict, records: Iterator[Dict]
) -> Iterator[Dict]:
    """The event lines of a ``trace/v1`` record stream after its
    (already checked) ``header``, one at a time.

    The footer (when present) must be the last line; the declared event
    count is checked once the stream ends.  Raises
    :class:`ObservabilityError` naming the path on any malformation.
    """
    footer: Optional[Dict] = None
    count = 0
    for line in records:
        if footer is not None:
            raise ObservabilityError(
                f"trace file {path} has event lines after its footer"
            )
        if line.get("schema") == TRACE_SCHEMA and line.get("footer"):
            footer = line
            continue
        count += 1
        yield line
    declared = footer.get("events") if footer is not None else header.get("events")
    if declared is not None and declared != count:
        raise ObservabilityError(
            f"trace file {path} declares {declared} events but contains "
            f"{count}"
        )


def load_trace(path: Union[str, Path]) -> TraceLog:
    """Rebuild a :class:`TraceLog` from a ``trace/v1`` NDJSON file."""
    records = iter_trace_records(path)
    header = next(records)
    _check_header(path, header)
    log = TraceLog()
    for line in _events(path, header, records):
        log.record(event_from_dict(line))
    return log


def trace_stats(path: Union[str, Path], top: int = 0) -> Dict:
    """Streaming single-pass summary of a trace file (no event objects built).

    Handles both schemas: a ``trace/v1`` event file yields schema,
    event count, the slot span, per-kind counts, and the number of
    distinct nodes touched; a merged ``trace/v2`` span file is
    delegated to :func:`repro.obs.tracing.span_stats` — per-span-name
    p50/p95/p99 duration summaries plus, with ``top > 0``, the ``top``
    slowest individual spans.  Records are read one at a time, so an
    event file is summarized in memory independent of its length.
    Always JSON-serializable.
    """
    records = iter_trace_records(path)
    header = next(records)
    if header.get("schema") == "trace/v2":
        summary = span_stats(iter_spans(path, header, records), top=top)
        summary["trace_id"] = header.get("trace_id")
        return summary
    _check_header(path, header)
    kinds: Dict[str, int] = {}
    nodes = set()
    events = 0
    first_slot: Optional[int] = None
    last_slot: Optional[int] = None
    for line in _events(path, header, records):
        events += 1
        kind = str(line.get("kind"))
        kinds[kind] = kinds.get(kind, 0) + 1
        nodes.add(line.get("node"))
        peer = line.get("peer")
        if peer is not None:
            nodes.add(peer)
        slot = int(line.get("slot", 0))
        if first_slot is None or slot < first_slot:
            first_slot = slot
        if last_slot is None or slot > last_slot:
            last_slot = slot
    return {
        "schema": TRACE_SCHEMA,
        "events": events,
        "first_slot": first_slot,
        "last_slot": last_slot,
        "kinds": {kind: kinds[kind] for kind in sorted(kinds)},
        "nodes": len(nodes),
    }


class NdjsonTraceWriter:
    """A streaming trace sink: engine-compatible, unbounded, on disk.

    Duck-types :class:`TraceLog`'s ``record``, so it can be passed
    directly as the engine's ``trace=`` argument; every event goes
    straight to the NDJSON file instead of memory.  Use as a context
    manager (or call :meth:`close`) so the footer with the final totals
    is written.

    >>> import tempfile, os
    >>> from repro.sim.trace import TraceEvent, TraceKind
    >>> path = os.path.join(tempfile.mkdtemp(), "trace.ndjson")
    >>> with NdjsonTraceWriter(path) as writer:
    ...     writer.record(TraceEvent(slot=0, kind=TraceKind.TX_START, node=1))
    >>> len(load_trace(path))
    1
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.events_written = 0
        self._closed = False
        try:
            self._handle = self.path.open("w", encoding="utf-8")
            header = {"schema": TRACE_SCHEMA, "streamed": True}
            self._handle.write(json.dumps(header, sort_keys=True) + "\n")
        except OSError as exc:
            raise ObservabilityError(
                f"cannot open trace file {self.path} for streaming: {exc}"
            ) from exc

    def record(self, event: TraceEvent) -> None:
        """Stream one event to disk."""
        if self._closed:
            raise ObservabilityError(
                f"trace writer for {self.path} is closed; cannot record"
            )
        self._handle.write(json.dumps(event_to_dict(event), sort_keys=True) + "\n")
        self.events_written += 1

    def close(self) -> None:
        """Write the footer (final totals) and close the file; idempotent."""
        if self._closed:
            return
        footer = {
            "schema": TRACE_SCHEMA,
            "footer": True,
            "events": self.events_written,
        }
        try:
            self._handle.write(json.dumps(footer, sort_keys=True) + "\n")
            self._handle.close()
        except OSError as exc:
            raise ObservabilityError(
                f"cannot finalize trace file {self.path}: {exc}"
            ) from exc
        finally:
            self._closed = True

    def __enter__(self) -> "NdjsonTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
