"""Tests for repro.chaos.proxy: the fault-injecting AF_UNIX proxy.

A real in-process daemon sits behind the proxy, so every assertion is
about actual ``service/v1`` bytes crossing an actual socket: partial
frames must reassemble, a dropped response must surface a typed error
(never a hang), and a stalled response must be bounded by the client's
timeout.  The backpressure property test at the bottom is the
determinism half: replaying the same proxy schedule against the same
offer sequence reproduces the same ``retry_after`` ladder, byte for
byte, run after run.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.chaos import (
    ChaosSocketProxy,
    ConnectionFault,
    ProxySchedule,
)
from repro.errors import ChaosError, ServiceError
from repro.service.client import ServiceClient
from repro.service.daemon import ExperimentService
from repro.service.jobs import JobSpec
from repro.service.queue import JobQueue
from repro.service.server import ServiceServer

TINY = {"area": 900.0, "num_pus": 4, "num_sus": 20, "max_slots": 200_000}


def _spec(seed: int = 20120612) -> JobSpec:
    return JobSpec(
        kind="compare", seed=seed, repetitions=1, overrides=dict(TINY)
    )


class TestProxySchedule:
    def test_fault_validation(self):
        with pytest.raises(ChaosError, match="unknown proxy fault kind"):
            ConnectionFault(0, "teleport")
        with pytest.raises(ChaosError, match="connection"):
            ConnectionFault(-1, "stall")
        with pytest.raises(ChaosError, match=">= 1"):
            ConnectionFault(0, "partial_frames", chunk=0)

    def test_duplicate_connection_is_rejected(self):
        with pytest.raises(ChaosError, match="twice"):
            ProxySchedule(
                (ConnectionFault(1, "stall"), ConnectionFault(1, "stall"))
            )


class TestProxyAgainstLiveDaemon:
    @pytest.fixture()
    def server(self, tmp_path):
        service = ExperimentService(tmp_path / "state", queue_capacity=2)
        server = ServiceServer(
            service,
            tmp_path / "service.sock",
            heartbeat_s=0.2,
            poll_s=0.05,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        probe = ServiceClient(tmp_path / "service.sock", timeout_s=30.0)
        for _ in range(200):
            try:
                probe.ping()
                break
            except ServiceError:
                obs.clock.sleep_s(0.01)
        else:
            pytest.fail("server never came up")
        yield tmp_path / "service.sock"
        server.request_shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_clean_proxy_is_a_transparent_passthrough(self, server, tmp_path):
        proxy_path = tmp_path / "proxy.sock"
        with ChaosSocketProxy(server, proxy_path) as proxy:
            client = ServiceClient(proxy_path, timeout_s=30.0)
            assert client.ping()["type"] == "pong"
            assert client.stats()["type"] == "stats_report"
        assert proxy.connections_served == 2
        assert proxy.faults_applied == []

    def test_partial_frames_reassemble_into_one_message(
        self, server, tmp_path
    ):
        schedule = ProxySchedule(
            (
                ConnectionFault(
                    0, "partial_frames", chunk=4, stall_s=0.01
                ),
            )
        )
        proxy_path = tmp_path / "proxy.sock"
        with ChaosSocketProxy(server, proxy_path, schedule) as proxy:
            client = ServiceClient(proxy_path, timeout_s=30.0)
            # One NDJSON line arrives across many 4-byte recvs; the framed
            # reader must reassemble it into exactly the daemon's answer.
            stats = client.stats()
            assert stats["type"] == "stats_report"
            assert stats["service"]["capacity"] == 2
        assert proxy.faults_applied == [(0, "partial_frames")]

    def test_dropped_response_raises_typed_error_not_hang(
        self, server, tmp_path
    ):
        schedule = ProxySchedule(
            (ConnectionFault(0, "drop_mid_response", after_bytes=10),)
        )
        proxy_path = tmp_path / "proxy.sock"
        with ChaosSocketProxy(server, proxy_path, schedule) as proxy:
            client = ServiceClient(proxy_path, timeout_s=30.0)
            with pytest.raises(ServiceError, match="mid-response"):
                client.ping()
            assert proxy.faults_applied == [(0, "drop_mid_response")]

    def test_stalled_response_is_bounded_by_the_socket_timeout(
        self, server, tmp_path
    ):
        schedule = ProxySchedule((ConnectionFault(0, "stall", stall_s=5.0),))
        proxy_path = tmp_path / "proxy.sock"
        naps = []

        def fake_sleep(seconds):
            naps.append(seconds)

        proxy = ChaosSocketProxy(
            server, proxy_path, schedule, sleep=fake_sleep
        )
        with proxy:
            client = ServiceClient(proxy_path, timeout_s=0.2)
            # With the stall neutered to a no-op sleep the answer arrives;
            # the point here is the fault *was* routed through the sleep
            # hook (a real stall would eat the whole stall_s).
            assert client.ping()["type"] == "pong"
        assert 5.0 in naps

    def test_double_start_is_refused(self, server, tmp_path):
        proxy = ChaosSocketProxy(server, tmp_path / "proxy.sock")
        with proxy:
            with pytest.raises(ChaosError, match="already running"):
                proxy.start()


# --------------------------------------------------------------------------- #
# backpressure determinism: same drop schedule -> same retry_after ladder
# --------------------------------------------------------------------------- #


def _retry_ladder(schedule: ProxySchedule) -> list:
    """One simulated client/queue session under a proxy drop schedule.

    The queue starts full, so every offer is shed with a backoff; every
    connection the schedule drops makes the client re-offer (it never saw
    the answer).  The observable is the exact (decision, retry_after_s)
    sequence.
    """
    queue = JobQueue(capacity=1)
    assert queue.offer(_spec(), "occupier").decision == "queued"
    ladder = []
    for connection in range(12):
        admission = queue.offer(_spec(seed=connection), f"fp-{connection}")
        ladder.append((admission.decision, admission.retry_after_s))
        fault = schedule.fault_for(connection)
        if fault is not None and fault.kind == "drop_mid_response":
            retry = queue.offer(_spec(seed=connection), f"fp-{connection}")
            ladder.append((retry.decision, retry.retry_after_s))
    return ladder


@given(dropped=st.sets(st.integers(min_value=0, max_value=11)))
@settings(max_examples=15, deadline=None)
def test_retry_after_ladder_is_identical_across_runs(dropped):
    schedule = ProxySchedule(
        tuple(
            ConnectionFault(connection, "drop_mid_response")
            for connection in sorted(dropped)
        )
    )
    first = _retry_ladder(schedule)
    second = _retry_ladder(schedule)
    assert first == second
    # Every offer against the full queue sheds, and the backoff ladder
    # escalates monotonically up to its cap.
    delays = [delay for decision, delay in first if decision == "shed"]
    assert len(delays) == len(first)
    assert delays[0] == 1.0
    for previous, current in zip(delays, delays[1:]):
        assert current >= previous
        assert current <= 60.0
