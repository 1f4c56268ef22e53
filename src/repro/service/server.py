"""AF_UNIX front end for the experiment service.

A thin transport over :class:`~repro.service.daemon.ExperimentService`:
one ``selectors`` loop owns the listener and all client connections, one
worker thread executes jobs off the bounded queue.  Everything the
daemon *decides* lives in the core; this module only moves NDJSON lines.

Shutdown discipline (SIGTERM, SIGINT, or a client ``shutdown`` request):
stop accepting connections and admissions, let the worker finish the
running job **and** the queued backlog (journals are fsynced per
repetition regardless — SIGKILL loses nothing durable), write the
drain manifest, tell every connected client ``draining``, and exit.  Timing uses the injectable clock facade
(:func:`repro.obs.clock.monotonic_s`); the select timeout is the only
wait primitive.
"""

from __future__ import annotations

import selectors
import signal
import socket
import threading
from pathlib import Path
from typing import Dict, Optional, Union

import repro.obs as obs
from repro.errors import ProtocolError, ServiceError
from repro.service import protocol
from repro.service.daemon import ExperimentService

__all__ = ["ServiceServer"]

_RECV_CHUNK = 65536


class _Connection:
    """One client: socket, receive buffer, send lock, subscriptions."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""
        # Reentrant: a submit holds it across its answer (_handle_line).
        self.send_lock = threading.RLock()
        self.callback = None  # installed when the client streams a job
        self.wants_heartbeat = False
        self.alive = True


class ServiceServer:
    """Serve one :class:`ExperimentService` over a local AF_UNIX socket."""

    def __init__(
        self,
        service: ExperimentService,
        socket_path: Union[str, Path],
        heartbeat_s: float = 5.0,
        poll_s: float = 0.5,
    ) -> None:
        self.service = service
        self.socket_path = Path(socket_path)
        self.heartbeat_s = heartbeat_s
        self.poll_s = poll_s
        self._selector = selectors.DefaultSelector()
        self._stop = threading.Event()
        self._connections: Dict[int, _Connection] = {}
        self._listener: Optional[socket.socket] = None
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._worker: Optional[threading.Thread] = None

    # ---- lifecycle ------------------------------------------------------ #

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (call from the main thread)."""
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)

    def _on_signal(self, signum, frame) -> None:
        self.request_shutdown()

    def request_shutdown(self) -> None:
        self._stop.set()
        try:
            self._wake_w.send(b"x")
        except OSError:
            obs.counter_add("service.wake_errors")

    def serve_forever(self) -> Dict:
        """Bind, serve until shutdown, drain; returns the drain summary."""
        self._open_listener()
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._worker = threading.Thread(
            target=self._worker_loop, name="service-worker", daemon=True
        )
        self._worker.start()
        last_beat = obs.monotonic_s()
        try:
            while not self._stop.is_set():
                events = self._selector.select(timeout=self.heartbeat_s)
                for key, _mask in events:
                    if key.data == "listener":
                        self._accept()
                    elif key.data == "wake":
                        self._drain_wake_pipe()
                    else:
                        self._read_connection(key.data)
                now = obs.monotonic_s()
                if now - last_beat >= self.heartbeat_s:
                    last_beat = now
                    self._broadcast_heartbeat()
            return self._drain()
        finally:
            self._close_everything()

    # ---- socket plumbing ------------------------------------------------ #

    def _open_listener(self) -> None:
        if self.socket_path.exists():
            # A stale socket from a killed daemon; a *live* one refuses
            # the bind below anyway once the stale file is gone.
            try:
                self.socket_path.unlink()
            except OSError as exc:
                raise ServiceError(
                    f"cannot remove stale socket {self.socket_path}: {exc}"
                ) from exc
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(str(self.socket_path))
        except OSError as exc:
            listener.close()
            raise ServiceError(
                f"cannot bind service socket {self.socket_path}: {exc}"
            ) from exc
        listener.listen(16)
        listener.setblocking(False)
        self._listener = listener
        self._selector.register(listener, selectors.EVENT_READ, "listener")

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        # Reads are selector-driven; writes are blocking sendall under a
        # per-connection lock so worker-thread events never interleave.
        sock.setblocking(True)
        conn = _Connection(sock)
        self._connections[sock.fileno()] = conn
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _drain_wake_pipe(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            return

    def _read_connection(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except OSError:
            self._close_connection(conn)
            return
        if not data:
            self._close_connection(conn)
            return
        conn.buffer += data
        while b"\n" in conn.buffer:
            line, conn.buffer = conn.buffer.split(b"\n", 1)
            if line.strip():
                self._handle_line(conn, line)

    def _send(self, conn: _Connection, message: Dict) -> None:
        if not conn.alive:
            return
        try:
            payload = protocol.encode_message(message)
        except ProtocolError:
            payload = protocol.encode_message(
                protocol.error_response(
                    ServiceError("internal: unserializable response")
                )
            )
        try:
            with conn.send_lock:
                conn.sock.sendall(payload)
        except OSError:
            self._close_connection(conn)

    def _close_connection(self, conn: _Connection) -> None:
        if not conn.alive:
            return
        conn.alive = False
        if conn.callback is not None:
            self.service.unsubscribe_all(conn.callback)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            obs.counter_add("service.unregister_races")
        self._connections.pop(conn.sock.fileno(), None)
        try:
            conn.sock.close()
        except OSError:
            obs.counter_add("service.close_errors")

    # ---- request dispatch ----------------------------------------------- #

    def _handle_line(self, conn: _Connection, line: bytes) -> None:
        try:
            request = protocol.parse_request(protocol.decode_message(line))
        except ProtocolError as exc:
            obs.counter_add("service.protocol_errors")
            self._send(conn, protocol.error_response(exc))
            return
        kind = request["type"]
        if kind == "ping":
            self._send(conn, protocol.pong())
        elif kind == "stats":
            self._send(conn, self.service.stats_report())
        elif kind == "result":
            self._send(conn, self.service.result(request["fingerprint"]))
        elif kind == "submit":
            subscriber = self._subscriber(conn) if request.get("stream") else None
            # The job may finish before its answer is sent: the service
            # subscribes the client before queueing the job, and the send
            # lock keeps the job's events behind the answer on the wire.
            with conn.send_lock:
                response = self.service.submit(request["job"], subscriber)
                if subscriber is not None and response["type"] == "accepted":
                    conn.wants_heartbeat = True
                self._send(conn, response)
        elif kind == "shutdown":
            self._send(conn, protocol.draining())
            self.request_shutdown()

    def _subscriber(self, conn: _Connection):
        """The callback that streams a job's events to ``conn``."""
        if conn.callback is None:
            def deliver(message: Dict, _conn=conn) -> None:
                self._send(_conn, message)

            conn.callback = deliver
        return conn.callback

    def _broadcast_heartbeat(self) -> None:
        beat = self.service.heartbeat()
        for conn in list(self._connections.values()):
            if conn.wants_heartbeat:
                self._send(conn, beat)

    # ---- drain ----------------------------------------------------------- #

    def _worker_loop(self) -> None:
        while True:
            fingerprint = self.service.run_next_job(timeout_s=self.poll_s)
            if (
                fingerprint is None
                and self._stop.is_set()
                and self.service.queue.depth == 0
            ):
                return

    def _drain(self) -> Dict:
        """Finish the backlog, drain the service, notify clients."""
        if self._listener is not None:
            try:
                self._selector.unregister(self._listener)
            except (KeyError, ValueError):
                obs.counter_add("service.unregister_races")
            self._listener.close()
            self._listener = None
        self.service.queue.close()
        if self._worker is not None:
            self._worker.join()
        summary = self.service.drain()
        farewell = protocol.draining()
        for conn in list(self._connections.values()):
            self._send(conn, farewell)
        return summary

    def _close_everything(self) -> None:
        for conn in list(self._connections.values()):
            self._close_connection(conn)
        if self._listener is not None:
            self._listener.close()
        self._wake_r.close()
        self._wake_w.close()
        self._selector.close()
        if self.socket_path.exists():
            try:
                self.socket_path.unlink()
            except OSError:
                obs.counter_add("service.close_errors")
