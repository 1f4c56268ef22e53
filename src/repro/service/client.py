"""Blocking NDJSON client for the experiment service.

One request per connection for the simple verbs; a streaming submit
keeps its connection open and yields ``progress``/``heartbeat`` events
to a callback until the terminal ``completed``/``failed`` (or the
daemon's ``draining`` farewell) arrives.  All waiting is bounded by the
socket timeout — a dead daemon produces a :class:`ServiceError`, never
a hang.

A streamed submission can additionally arm a **heartbeat deadline**: the
daemon emits ``heartbeat``/``progress`` frames while a job runs, so a
connection that stays open but goes silent past
``heartbeat_deadline_s`` means the daemon is stalled (wedged worker,
yanked disk, a proxy eating frames) rather than busy.  That case raises
the typed :class:`~repro.errors.ServiceUnavailableError` instead of
waiting out the full socket timeout.  The deadline clock is injectable
for tests.
"""

from __future__ import annotations

import socket
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Union

from repro.errors import ProtocolError, ServiceError, ServiceUnavailableError
from repro.obs.clock import monotonic_s, sleep_s
from repro.service import protocol
from repro.service.jobs import JobSpec

__all__ = ["ServiceClient", "spawn_daemon"]

#: Responses that end a streamed submission.
_TERMINAL = ("completed", "failed", "draining", "error")


class ServiceClient:
    """Talk ``service/v1`` to a daemon on a local socket."""

    def __init__(
        self,
        socket_path: Union[str, Path],
        timeout_s: float = 300.0,
        heartbeat_deadline_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if heartbeat_deadline_s is not None and heartbeat_deadline_s <= 0:
            raise ServiceError(
                f"heartbeat_deadline_s must be positive, got "
                f"{heartbeat_deadline_s}"
            )
        self.socket_path = Path(socket_path)
        self.timeout_s = timeout_s
        self.heartbeat_deadline_s = heartbeat_deadline_s
        self._clock = clock

    # ---- plumbing ------------------------------------------------------- #

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout_s)
        try:
            sock.connect(str(self.socket_path))
        except OSError as exc:
            sock.close()
            raise ServiceError(
                f"cannot reach service socket {self.socket_path}: {exc} "
                "(is the daemon running? start one with `addc-repro serve`)"
            ) from exc
        return sock

    @staticmethod
    def _read_line(sock: socket.socket, buffer: bytes) -> tuple:
        """Read one ``\\n``-terminated line; returns ``(line, rest)``."""
        while b"\n" not in buffer:
            try:
                chunk = sock.recv(65536)
            except socket.timeout as exc:
                raise ServiceError(
                    "timed out waiting for the service to respond"
                ) from exc
            if not chunk:
                raise ServiceError(
                    "service closed the connection mid-response"
                )
            buffer += chunk
        line, rest = buffer.split(b"\n", 1)
        return line, rest

    def _read_frame(self, sock: socket.socket, buffer: bytes) -> tuple:
        """Read one frame, bounded by the heartbeat deadline when armed.

        Without a deadline this is :meth:`_read_line`.  With one, the
        socket timeout becomes a polling granularity: every quiet
        interval checks how long the daemon has been silent, and silence
        past ``heartbeat_deadline_s`` raises
        :class:`ServiceUnavailableError` — any arriving byte resets the
        clock, so a slow-but-alive daemon is never misdiagnosed.
        """
        if self.heartbeat_deadline_s is None:
            return self._read_line(sock, buffer)
        clock = self._clock if self._clock is not None else monotonic_s
        last_byte_at = clock()
        while b"\n" not in buffer:
            try:
                chunk = sock.recv(65536)
            except socket.timeout as exc:
                silent_s = clock() - last_byte_at
                if silent_s >= self.heartbeat_deadline_s:
                    raise ServiceUnavailableError(
                        f"no heartbeat or progress frame from the service "
                        f"for {silent_s:.1f}s (deadline "
                        f"{self.heartbeat_deadline_s}s) — the daemon looks "
                        "dead or stalled"
                    ) from exc
                continue
            if not chunk:
                raise ServiceError(
                    "service closed the connection mid-response"
                )
            buffer += chunk
            last_byte_at = clock()
        line, rest = buffer.split(b"\n", 1)
        return line, rest

    def request(self, message: Dict) -> Dict:
        """One request, one response, one connection."""
        sock = self._connect()
        try:
            sock.sendall(protocol.encode_message(message))
            line, _rest = self._read_line(sock, b"")
            return protocol.decode_message(line)
        finally:
            sock.close()

    # ---- verbs ----------------------------------------------------------- #

    def ping(self) -> Dict:
        return self.request({"type": "ping"})

    def status(self) -> Dict:
        return self.request({"type": "status"})

    def stats(self) -> Dict:
        """Live telemetry snapshot (``stats_report``); never blocks a job."""
        return self.request({"type": "stats"})

    def result(self, fingerprint: str) -> Dict:
        return self.request({"type": "result", "fingerprint": fingerprint})

    def shutdown(self) -> Dict:
        return self.request({"type": "shutdown"})

    def submit(
        self,
        spec: Union[JobSpec, Dict],
        stream: bool = False,
        on_event: Optional[Callable[[Dict], None]] = None,
    ) -> Dict:
        """Submit a job; returns the daemon's decisive answer.

        Without ``stream``: the immediate response (``cache_hit``,
        ``accepted``, ``retry_after``, or ``error``).  With ``stream``:
        holds the connection, forwards every interim event to
        ``on_event``, and returns the terminal ``completed``/``failed``
        message (or the immediate answer when nothing will stream —
        cache hits and sheds are already terminal).
        """
        job = spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)
        message = {"type": "submit", "job": job, "stream": bool(stream)}
        if not stream:
            return self.request(message)
        sock = self._connect()
        try:
            if self.heartbeat_deadline_s is not None:
                # The socket timeout becomes the silence-poll interval;
                # it must tick faster than the deadline it enforces.
                sock.settimeout(
                    min(self.timeout_s, self.heartbeat_deadline_s / 4)
                )
            sock.sendall(protocol.encode_message(message))
            buffer = b""
            line, buffer = self._read_frame(sock, buffer)
            response = protocol.decode_message(line)
            if response.get("type") != "accepted":
                return response
            if on_event is not None:
                on_event(response)
            while True:
                line, buffer = self._read_frame(sock, buffer)
                event = protocol.decode_message(line)
                if event.get("type") in _TERMINAL:
                    return event
                if on_event is not None:
                    on_event(event)
        finally:
            sock.close()

    def wait_for_ping(self, attempts: int = 200) -> bool:
        """Poll ``ping`` until the daemon answers ``pong``; ``False`` if it
        never does within ``attempts`` tries."""
        for _ in range(attempts):
            try:
                if self.ping().get("type") == "pong":
                    return True
            except ServiceError:
                sleep_s(0.05)
        return False

    def wait_for_result(
        self, fingerprint: str, attempts: int = 600, sleep=None
    ) -> Dict:
        """Poll ``result`` until terminal; bounded by ``attempts``.

        ``sleep`` defaults to :func:`repro.obs.clock.sleep_s` (injectable
        for tests).  Raises :class:`ServiceError` when the budget runs
        out or the daemon reports an unknown fingerprint.
        """
        if sleep is None:
            sleep = sleep_s
        last: Dict = {}
        for _ in range(attempts):
            last = self.result(fingerprint)
            kind = last.get("type")
            if kind in ("completed", "failed"):
                return last
            if kind == "error":
                raise ProtocolError(
                    f"service cannot resolve {fingerprint!r}: "
                    f"{last.get('error')}"
                )
            sleep(0.2)
        raise ServiceError(
            f"job {fingerprint!r} did not finish within the polling budget "
            f"(last status: {last.get('type')!r})"
        )


@contextmanager
def spawn_daemon(
    socket_path: Union[str, Path],
    state_dir: Union[str, Path],
    queue_capacity: int,
) -> Iterator[subprocess.Popen]:
    """Run ``python -m repro serve`` as a child process for the block.

    The daemon heartbeats every 0.5 s and its output is discarded.  On
    exit it is killed unless it already stopped (a drained daemon exits
    by itself).  Callers wait for readiness with
    :meth:`ServiceClient.wait_for_ping`.
    """
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            str(socket_path),
            "--state-dir",
            str(state_dir),
            "--queue-capacity",
            str(queue_capacity),
            "--heartbeat",
            "0.5",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )
    try:
        yield daemon
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)
