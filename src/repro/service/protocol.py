"""The ``service/v1`` NDJSON wire protocol.

One JSON object per ``\\n``-terminated line, in both directions.  Every
message carries a ``type``; responses additionally stamp the schema so
clients can reject a daemon from a different era.  Requests:

========== ============================================================
``submit``   ``{"type", "job": {...JobSpec...}, "stream": bool}``
``stats``    live telemetry: queue/cache/counters/quarantine plus
             per-phase span timings — answered from in-memory state,
             never pausing the event loop or the running job
``result``   ``{"type", "fingerprint"}`` — fetch a finished artifact
``ping``     liveness probe
``shutdown`` graceful drain (same path as SIGTERM)
========== ============================================================

Responses: ``accepted``, ``cache_hit``, ``retry_after`` (typed
backpressure — a full queue *answers*, it never blocks), ``progress``,
``heartbeat``, ``completed``, ``failed``, ``pending``, ``stats_report``,
``pong``, ``draining``, and ``error``.

Malformed traffic raises :class:`~repro.errors.ProtocolError`; the daemon
converts it into an ``error`` response for the offending client and keeps
serving everyone else.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Union

from repro.errors import ProtocolError, error_record

__all__ = [
    "SERVICE_SCHEMA",
    "REQUEST_TYPES",
    "encode_message",
    "decode_message",
    "parse_request",
    "accepted",
    "cache_hit",
    "retry_after",
    "progress_event",
    "heartbeat",
    "completed",
    "failed",
    "pending",
    "stats_report",
    "pong",
    "draining",
    "error_response",
]

SERVICE_SCHEMA = "service/v1"

REQUEST_TYPES = ("submit", "stats", "result", "ping", "shutdown")


def encode_message(message: Dict) -> bytes:
    """One protocol message as a ``\\n``-terminated JSON line."""
    try:
        return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serializable: {exc}") from exc


def decode_message(line: Union[str, bytes]) -> Dict:
    """Parse one line into a message dict (must be an object with ``type``)."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not UTF-8: {exc}") from exc
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"message is not JSON: {exc}") from exc
    if not isinstance(record, dict) or not isinstance(record.get("type"), str):
        raise ProtocolError("message must be a JSON object with a 'type' string")
    return record


def parse_request(record: Dict) -> Dict:
    """Validate a client request's shape (the daemon's front gate)."""
    kind = record.get("type")
    if kind not in REQUEST_TYPES:
        raise ProtocolError(
            f"unknown request type {kind!r} (expected one of {REQUEST_TYPES})"
        )
    if kind == "submit" and not isinstance(record.get("job"), dict):
        raise ProtocolError("submit request needs a 'job' object")
    if kind == "result" and not isinstance(record.get("fingerprint"), str):
        raise ProtocolError("result request needs a 'fingerprint' string")
    return record


def _response(kind: str, **fields) -> Dict:
    message = {"type": kind, "schema": SERVICE_SCHEMA}
    message.update(fields)
    return message


def accepted(
    fingerprint: str, position: int, queue_depth: int, duplicate: bool = False
) -> Dict:
    """The job was admitted (or attached to an identical in-flight job)."""
    return _response(
        "accepted",
        fingerprint=fingerprint,
        position=int(position),
        queue_depth=int(queue_depth),
        duplicate=bool(duplicate),
    )


def cache_hit(fingerprint: str, artifact: Dict) -> Dict:
    """An identical request was served from the result cache, zero compute."""
    return _response("cache_hit", fingerprint=fingerprint, artifact=artifact)


def retry_after(
    retry_after_s: float, queue_depth: int, capacity: int
) -> Dict:
    """Typed backpressure: the queue is full; come back after the delay.

    ``retry_after_s`` is the server-suggested backoff — it grows
    exponentially with consecutive sheds, so a thundering herd spreads
    out instead of hammering a saturated daemon.
    """
    return _response(
        "retry_after",
        retry_after_s=float(retry_after_s),
        queue_depth=int(queue_depth),
        capacity=int(capacity),
    )


def progress_event(fingerprint: str, done: int, total: int) -> Dict:
    return _response(
        "progress", fingerprint=fingerprint, done=int(done), total=int(total)
    )


def heartbeat(
    queue_depth: int,
    inflight: int,
    jobs_completed: int,
    cache_hits: int = 0,
    cache_misses: int = 0,
) -> Dict:
    return _response(
        "heartbeat",
        queue_depth=int(queue_depth),
        inflight=int(inflight),
        jobs_completed=int(jobs_completed),
        cache_hits=int(cache_hits),
        cache_misses=int(cache_misses),
    )


def completed(fingerprint: str, status: str, artifact: Optional[Dict]) -> Dict:
    return _response(
        "completed", fingerprint=fingerprint, status=status, artifact=artifact
    )


def failed(fingerprint: str, error: Dict) -> Dict:
    return _response("failed", fingerprint=fingerprint, error=error)


def pending(fingerprint: str, position: int, running: bool) -> Dict:
    return _response(
        "pending",
        fingerprint=fingerprint,
        position=int(position),
        running=bool(running),
    )


def stats_report(stats: Dict) -> Dict:
    """Live telemetry: the ``stats`` verb's answer.

    ``stats`` carries the service summary (queue depth, in-flight,
    capacity, counters), the quarantine size, and ``phases`` — the
    daemon recorder's span profile (``service.job``, ``engine.phase.*``,
    ...) — all read from in-memory state without touching the worker.
    """
    return _response("stats_report", **stats)


def pong() -> Dict:
    return _response("pong")


def draining() -> Dict:
    return _response("draining")


def error_response(exc: BaseException) -> Dict:
    """A structured error record for the offending client."""
    return _response("error", error=error_record(exc))
