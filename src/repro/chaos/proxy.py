"""A fault-injecting AF_UNIX proxy for the ``service/v1`` protocol.

``ChaosSocketProxy`` listens on its own socket path, forwards every
accepted connection to the real daemon socket, and applies scheduled
faults to the **response** direction — the direction whose failure modes
clients must survive:

* ``drop_mid_response`` — forward a byte prefix of the response, then
  close both sides.  The client's framed reader must surface a typed
  "closed mid-response" error, never a hang or a half-parsed message.
* ``partial_frames`` — deliver the response in tiny chunks with a pause
  between sends, so one NDJSON line arrives across many ``recv`` calls.
  Correct clients reassemble; naive one-recv-per-message clients break.
* ``stall`` — sit on the response for ``stall_s`` seconds before
  forwarding anything.  This is the dead-daemon simulation that the
  client's heartbeat deadline (:class:`ServiceUnavailableError`) exists
  to bound.

Faults are keyed by accepted-connection index and written out up front
as plain data (a :class:`ProxySchedule`); the proxy consumes no RNG, so
replaying the same schedule against the same request sequence reproduces
the same byte-level behaviour — the determinism the backpressure
property test relies on.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import ChaosError
from repro.obs.clock import sleep_s

__all__ = ["PROXY_FAULT_KINDS", "ConnectionFault", "ProxySchedule", "ChaosSocketProxy"]

PROXY_FAULT_KINDS = ("drop_mid_response", "partial_frames", "stall")


@dataclass(frozen=True)
class ConnectionFault:
    """The fault applied to one accepted connection (0-based index)."""

    connection: int
    kind: str
    #: ``drop_mid_response``: response bytes forwarded before the cut.
    after_bytes: int = 16
    #: ``partial_frames``: bytes per send.
    chunk: int = 3
    #: ``partial_frames``: pause between chunks (forces separate recvs);
    #: ``stall``: pause before the first response byte.
    stall_s: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in PROXY_FAULT_KINDS:
            raise ChaosError(
                f"unknown proxy fault kind {self.kind!r} "
                f"(expected one of {PROXY_FAULT_KINDS})"
            )
        if self.connection < 0:
            raise ChaosError(f"connection must be >= 0, got {self.connection}")
        if self.after_bytes < 1 or self.chunk < 1:
            raise ChaosError("after_bytes and chunk must be >= 1")
        if self.stall_s < 0:
            raise ChaosError(f"stall_s must be >= 0, got {self.stall_s}")


@dataclass(frozen=True)
class ProxySchedule:
    """Replayable per-connection fault assignments."""

    faults: Tuple[ConnectionFault, ...] = ()

    def __post_init__(self) -> None:
        connections = [fault.connection for fault in self.faults]
        if len(set(connections)) != len(connections):
            raise ChaosError(
                f"proxy schedule assigns connection {connections} twice"
            )

    def fault_for(self, connection: int) -> Optional[ConnectionFault]:
        for fault in self.faults:
            if fault.connection == connection:
                return fault
        return None


class ChaosSocketProxy:
    """Byte-level AF_UNIX proxy applying one :class:`ProxySchedule`.

    Usable as a context manager; ``connections_served`` and
    ``faults_applied`` expose what actually happened for scenario
    assertions.  The proxy threads are daemonic and joined on ``stop``.
    """

    def __init__(
        self,
        upstream_path: Union[str, Path],
        listen_path: Union[str, Path],
        schedule: Optional[ProxySchedule] = None,
        accept_timeout_s: float = 0.2,
        sleep=sleep_s,
    ) -> None:
        self.upstream_path = Path(upstream_path)
        self.listen_path = Path(listen_path)
        self.schedule = schedule or ProxySchedule()
        self.accept_timeout_s = accept_timeout_s
        self._sleep = sleep
        self.connections_served = 0
        self.faults_applied: List[Tuple[int, str]] = []
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._lock = threading.Lock()

    # ---- lifecycle ----------------------------------------------------- #

    def start(self) -> "ChaosSocketProxy":
        if self._listener is not None:
            raise ChaosError("proxy is already running")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            if self.listen_path.exists():
                self.listen_path.unlink()
            listener.bind(str(self.listen_path))
            listener.listen(16)
            listener.settimeout(self.accept_timeout_s)
        except OSError as exc:
            listener.close()
            raise ChaosError(
                f"proxy cannot listen on {self.listen_path}: {exc}"
            ) from exc
        self._listener = listener
        self._stopping.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=30)
            self._accept_thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        with self._lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.join(timeout=30)
        try:
            self.listen_path.unlink()
        except OSError:
            pass  # best-effort cleanup of the socket inode

    def __enter__(self) -> "ChaosSocketProxy":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ---- data path ------------------------------------------------------ #

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                client, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            index = self.connections_served
            self.connections_served += 1
            handler = threading.Thread(
                target=self._handle,
                args=(client, index),
                name=f"chaos-proxy-conn-{index}",
                daemon=True,
            )
            with self._lock:
                self._handlers.append(handler)
            handler.start()

    def _handle(self, client: socket.socket, index: int) -> None:
        fault = self.schedule.fault_for(index)
        upstream = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            upstream.connect(str(self.upstream_path))
        except OSError:
            client.close()
            upstream.close()
            return
        if fault is not None:
            self.faults_applied.append((index, fault.kind))
        request_pump = threading.Thread(
            target=self._pump_requests,
            args=(client, upstream),
            name=f"chaos-proxy-req-{index}",
            daemon=True,
        )
        request_pump.start()
        try:
            self._pump_responses(upstream, client, fault)
        finally:
            for sock in (upstream, client):
                try:
                    sock.close()
                except OSError:
                    pass  # already torn down by the fault path
            request_pump.join(timeout=30)

    def _pump_requests(
        self, client: socket.socket, upstream: socket.socket
    ) -> None:
        """Forward client bytes upstream until either side goes away."""
        client.settimeout(self.accept_timeout_s)
        while not self._stopping.is_set():
            try:
                chunk = client.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            if not chunk:
                try:
                    upstream.shutdown(socket.SHUT_WR)
                except OSError:
                    pass  # upstream already closed; nothing to signal
                return
            try:
                upstream.sendall(chunk)
            except OSError:
                return

    def _pump_responses(
        self,
        upstream: socket.socket,
        client: socket.socket,
        fault: Optional[ConnectionFault],
    ) -> None:
        """Forward response bytes, applying this connection's fault."""
        upstream.settimeout(self.accept_timeout_s)
        forwarded = 0
        stalled = False
        while not self._stopping.is_set():
            try:
                chunk = upstream.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            if not chunk:
                return
            if fault is not None and fault.kind == "stall" and not stalled:
                stalled = True
                self._sleep(fault.stall_s)
            if fault is not None and fault.kind == "drop_mid_response":
                budget = fault.after_bytes - forwarded
                if budget <= 0:
                    return
                head = chunk[:budget]
                try:
                    client.sendall(head)
                except OSError:
                    return
                forwarded += len(head)
                if forwarded >= fault.after_bytes:
                    # The cut: both directions die, like a yanked daemon.
                    for sock in (client, upstream):
                        try:
                            sock.shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass  # peer may already be gone
                    return
                continue
            if fault is not None and fault.kind == "partial_frames":
                for start in range(0, len(chunk), fault.chunk):
                    piece = chunk[start : start + fault.chunk]
                    try:
                        client.sendall(piece)
                    except OSError:
                        return
                    self._sleep(min(fault.stall_s, 0.01))
                forwarded += len(chunk)
                continue
            try:
                client.sendall(chunk)
            except OSError:
                return
            forwarded += len(chunk)
