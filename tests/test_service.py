"""Tests for repro.service: the fault-tolerant experiment daemon.

The acceptance contract, layer by layer:

* **protocol** — every response is schema-stamped ``service/v1``;
  malformed traffic raises :class:`ProtocolError`, never crashes;
* **queue** — a full queue *answers* (typed ``retry_after`` with
  exponential backoff), it never blocks; duplicates attach; recovery
  bypasses capacity;
* **cache** — an identical request is served from disk with zero engine
  compute and a durable provenance record;
* **fingerprints** — the cache key is invariant to spelling (dict
  insertion order) and to run *options* (workers, retry policy), and
  moves for every semantic config change;
* **daemon** — submit/run/result lifecycle, quarantine of poisoned
  jobs, and kill/restart recovery that finishes the backlog with
  byte-identical artifacts and RNG stream positions.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.obs as obs
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ServiceError,
)
from repro.experiments.runner import run_comparison_repetition
from repro.harness import RetryPolicy, load_checkpoint
from repro.harness.sweep import sweep_fingerprint
from repro.obs.manifest import build_manifest
from repro.obs.report import render_report
from repro.service import protocol
from repro.service.cache import ResultCache
from repro.service.daemon import ExperimentService
from repro.service.jobs import (
    JobSpec,
    run_job,
    save_job_artifact,
)
from repro.service.queue import JobQueue
from repro.service.state import STATE_SCHEMA, ServiceState


@pytest.fixture(autouse=True)
def _null_recorder_between_tests():
    obs.set_recorder(None)
    yield
    obs.set_recorder(None)


TINY = {"area": 900.0, "num_pus": 4, "num_sus": 20, "max_slots": 200_000}


def tiny_spec(**kwargs) -> JobSpec:
    base = dict(
        kind="compare", seed=20120612, repetitions=1, overrides=dict(TINY)
    )
    base.update(kwargs)
    return JobSpec(**base)


# --------------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------------- #


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = protocol.accepted("abc", 1, 1)
        line = protocol.encode_message(message)
        assert line.endswith(b"\n")
        assert protocol.decode_message(line) == message

    def test_every_response_is_schema_stamped(self):
        responses = [
            protocol.accepted("f", 1, 1),
            protocol.cache_hit("f", {}, {}),
            protocol.retry_after(1.0, 4, 4),
            protocol.progress_event("f", 1, 2),
            protocol.heartbeat(0, 1, 2),
            protocol.completed("f", "complete", {}),
            protocol.failed("f", {}),
            protocol.pending("f", 1, running=False),
            protocol.status_report({"queue_depth": 0}),
            protocol.pong(),
            protocol.draining(),
            protocol.error_response(ServiceError("x")),
        ]
        for response in responses:
            assert response["schema"] == "service/v1"
            assert isinstance(response["type"], str)

    def test_encode_rejects_unserializable(self):
        with pytest.raises(ProtocolError):
            protocol.encode_message({"type": "x", "bad": object()})

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"not json")
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"[1, 2]")
        with pytest.raises(ProtocolError):
            protocol.decode_message(b'{"no_type": 1}')
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"\xff\xfe")

    def test_parse_request_validates_shape(self):
        with pytest.raises(ProtocolError):
            protocol.parse_request({"type": "frobnicate"})
        with pytest.raises(ProtocolError):
            protocol.parse_request({"type": "submit"})
        with pytest.raises(ProtocolError):
            protocol.parse_request({"type": "result"})
        assert protocol.parse_request({"type": "ping"})["type"] == "ping"

    def test_error_response_carries_structured_record(self):
        response = protocol.error_response(ServiceError("boom"))
        assert response["error"]["code"] == "service"
        assert "boom" in response["error"]["message"]


# --------------------------------------------------------------------------- #
# job specs and fingerprints (the cache key)
# --------------------------------------------------------------------------- #


class TestJobSpec:
    def test_wire_round_trip(self):
        spec = tiny_spec()
        rebuilt = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_unknown_field_rejected(self):
        record = tiny_spec().to_dict()
        record["workers"] = 8
        with pytest.raises(ServiceError, match="unknown fields"):
            JobSpec.from_dict(record)

    def test_kind_and_shape_validation(self):
        with pytest.raises(ServiceError):
            JobSpec(kind="nope")
        with pytest.raises(ServiceError):
            JobSpec(kind="fig6")  # needs a subfigure
        with pytest.raises(ServiceError):
            JobSpec(kind="compare", subfigure="c")
        with pytest.raises(ServiceError):
            JobSpec(kind="compare", chaos={"intensity": 0.5})
        with pytest.raises(ServiceError):
            JobSpec(kind="chaos", scale="galactic")

    def test_fig6_fingerprint_matches_cli_journal_fingerprint(self):
        spec = JobSpec(
            kind="fig6", subfigure="c", repetitions=1, overrides=dict(TINY)
        )
        config = spec.config()
        points = spec.points()
        expected = sweep_fingerprint(
            "fig6c", points, [config.repetitions] * len(points)
        )
        assert spec.fingerprint() == expected

    def test_fingerprint_ignores_override_spelling_order(self):
        forward = tiny_spec(overrides=dict(TINY))
        backward = tiny_spec(
            overrides=list(reversed(list(TINY.items())))
        )
        assert forward == backward
        assert forward.fingerprint() == backward.fingerprint()

    def test_fingerprint_moves_for_every_semantic_field(self):
        base = tiny_spec()
        variants = [
            tiny_spec(seed=7),
            tiny_spec(repetitions=2),
            tiny_spec(p_t=0.25),
            tiny_spec(blocking="geometric"),
            tiny_spec(overrides={**TINY, "num_sus": 21}),
            JobSpec(
                kind="chaos",
                seed=20120612,
                repetitions=1,
                overrides=dict(TINY),
            ),
        ]
        fingerprints = {spec.fingerprint() for spec in [base] + variants}
        assert len(fingerprints) == len(variants) + 1

    def test_chaos_fingerprint_covers_fault_options(self):
        quiet = JobSpec(kind="chaos", repetitions=1, overrides=dict(TINY))
        stormy = JobSpec(
            kind="chaos",
            repetitions=1,
            overrides=dict(TINY),
            chaos={"intensity": 0.9},
        )
        assert quiet.fingerprint() != stormy.fingerprint()


SPEC_FIELD_ORDERS = st.permutations(
    ["kind", "scale", "seed", "blocking", "repetitions", "p_t",
     "subfigure", "values", "overrides", "chaos"]
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    order=SPEC_FIELD_ORDERS,
    seed=st.integers(0, 2**31 - 1),
    repetitions=st.integers(1, 4),
    p_t=st.sampled_from([None, 0.1, 0.25, 0.4]),
)
def test_fingerprint_invariant_to_dict_insertion_order(
    order, seed, repetitions, p_t
):
    """Property (cache-key stability): a spec's fingerprint depends on
    what the job *means*, never on how the submit request spelled it."""
    spec = tiny_spec(seed=seed, repetitions=repetitions, p_t=p_t)
    record = spec.to_dict()
    shuffled = {key: record[key] for key in order}
    shuffled["overrides"] = dict(
        reversed(list(shuffled["overrides"].items()))
    )
    rebuilt = JobSpec.from_dict(shuffled)
    assert rebuilt == spec
    assert rebuilt.fingerprint() == spec.fingerprint()


def test_fingerprint_invariant_to_workers_and_policy(tmp_path):
    """The cache key covers the experiment, not how it is executed: the
    same spec run serial/parallel, with/without retry policy, lands on
    the same fingerprint and byte-identical artifacts."""
    spec = tiny_spec()
    runs = [
        run_job(spec),
        run_job(spec, workers=2),
        run_job(spec, policy=RetryPolicy(max_attempts=5)),
    ]
    artifacts = []
    for index, job in enumerate(runs):
        target = tmp_path / f"run-{index}.json"
        save_job_artifact(job, target)
        artifacts.append(target.read_bytes())
    assert artifacts[0] == artifacts[1] == artifacts[2]
    assert len({spec.fingerprint()}) == 1  # options never entered the key


# --------------------------------------------------------------------------- #
# queue: typed backpressure, never blocking
# --------------------------------------------------------------------------- #


class TestJobQueue:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            JobQueue(capacity=0)

    def test_full_queue_sheds_with_exponential_backoff(self):
        queue = JobQueue(capacity=1)
        assert queue.offer(tiny_spec(), "a").decision == "queued"
        sheds = [
            queue.offer(tiny_spec(seed=i), f"s{i}") for i in range(8)
        ]
        assert [s.decision for s in sheds] == ["shed"] * 8
        # 1 s, doubling -> capped at 60 s, then stays capped.
        assert [s.retry_after_s for s in sheds] == [
            1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0
        ]

    def test_backoff_resets_after_admission(self):
        queue = JobQueue(capacity=1)
        queue.offer(tiny_spec(), "a")
        assert queue.offer(tiny_spec(seed=1), "b").retry_after_s == 1.0
        entry = queue.take(timeout_s=0)
        queue.offer(tiny_spec(seed=2), "c")  # slot freed by take
        queue.mark_done(entry)
        assert queue.offer(tiny_spec(seed=3), "d").retry_after_s == 1.0

    def test_offer_never_blocks_even_when_full(self):
        queue = JobQueue(capacity=1)
        queue.offer(tiny_spec(), "a")
        finished = threading.Event()

        def slam():
            for i in range(50):
                queue.offer(tiny_spec(seed=i + 1), f"x{i}")
            finished.set()

        thread = threading.Thread(target=slam)
        thread.start()
        thread.join(timeout=5.0)
        assert finished.is_set(), "offer() blocked on a full queue"

    def test_duplicates_attach_to_queued_and_running(self):
        queue = JobQueue(capacity=2)
        queue.offer(tiny_spec(), "a")
        again = queue.offer(tiny_spec(), "a")
        assert again.decision == "duplicate"
        assert again.position == 1
        entry = queue.take(timeout_s=0)
        running = queue.offer(tiny_spec(), "a")
        assert running.decision == "duplicate"
        assert running.position == 0  # 0 = currently running
        queue.mark_done(entry)

    def test_closed_queue_sheds(self):
        queue = JobQueue(capacity=4)
        queue.close()
        assert queue.offer(tiny_spec(), "a").decision == "shed"

    def test_restore_bypasses_capacity_but_not_dedup(self):
        queue = JobQueue(capacity=1)
        queue.offer(tiny_spec(), "a")
        assert queue.restore(tiny_spec(seed=1), "b") is not None
        assert queue.restore(tiny_spec(seed=2), "c") is not None
        assert queue.depth == 3  # over capacity, deliberately
        assert queue.restore(tiny_spec(seed=1), "b") is None
        # New offers still shed against the configured capacity.
        assert queue.offer(tiny_spec(seed=9), "z").decision == "shed"

    def test_take_is_fifo_and_timeout_returns_none(self):
        queue = JobQueue(capacity=4)
        queue.offer(tiny_spec(), "a")
        queue.offer(tiny_spec(seed=1), "b")
        assert queue.take(timeout_s=0).fingerprint == "a"
        assert queue.take(timeout_s=0).fingerprint == "b"
        assert queue.take(timeout_s=0) is None


# --------------------------------------------------------------------------- #
# cache and state
# --------------------------------------------------------------------------- #


class TestResultCache:
    def test_miss_then_hit_with_provenance(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = tiny_spec()
        fp = spec.fingerprint()
        assert cache.load_artifact(fp) is None
        cache.artifact_path(fp).write_text('{"name": "comparison"}')
        assert cache.load_artifact(fp) == {"name": "comparison"}
        record = cache.record_hit(fp, spec)
        assert record["fingerprint"] == fp
        assert record["job"] == spec.to_dict()
        trail = cache.hit_records()
        assert len(trail) == 1
        assert trail[0]["kind"] == "cache_hit"

    def test_corrupt_entry_is_refused_not_served(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.artifact_path("f").write_text("{ torn")
        with pytest.raises(ServiceError, match="unreadable"):
            cache.load_artifact("f")

    def test_torn_log_tail_is_repaired_on_open(self, tmp_path):
        from repro.chaos import tear_ndjson_tail
        from repro.obs.recorder import MetricsRecorder

        cache = ResultCache(tmp_path / "cache")
        cache.record_hit("a" * 8, tiny_spec())
        cache.record_hit("b" * 8, tiny_spec(seed=1))
        # A SIGKILL lands inside the final append: the last line tears.
        tear_ndjson_tail(cache.log_path)
        recorder = MetricsRecorder()
        obs.set_recorder(recorder)
        reopened = ResultCache(tmp_path / "cache")
        assert recorder.counters["service.cache.torn_tail"] == 1
        trail = reopened.hit_records()
        assert [record["fingerprint"] for record in trail] == ["a" * 8]
        # The repaired log keeps accepting appends on a clean boundary.
        reopened.record_hit("c" * 8, tiny_spec(seed=2))
        assert [
            record["fingerprint"] for record in reopened.hit_records()
        ] == ["a" * 8, "c" * 8]

    def test_interior_log_corruption_raises_not_repairs(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.record_hit("a" * 8, tiny_spec())
        cache.record_hit("b" * 8, tiny_spec(seed=1))
        lines = cache.log_path.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]  # mangle an interior record
        cache.log_path.write_text("\n".join(lines) + "\n")
        # Only the *final* line can tear in a crash; damage anywhere else
        # means tampering, and the cache must refuse to open over it.
        with pytest.raises(ServiceError, match="corrupt at record 1"):
            ResultCache(tmp_path / "cache")

    def test_clean_log_open_counts_nothing(self, tmp_path):
        from repro.obs.recorder import MetricsRecorder

        cache = ResultCache(tmp_path / "cache")
        cache.record_hit("a" * 8, tiny_spec())
        recorder = MetricsRecorder()
        obs.set_recorder(recorder)
        reopened = ResultCache(tmp_path / "cache")
        assert "service.cache.torn_tail" not in recorder.counters
        assert len(reopened.hit_records()) == 1

    def test_first_hit_creates_the_log_durably(self, tmp_path):
        """The log's existence is a directory entry: the hit that creates
        it fsyncs the cache directory once, later hits never do."""
        import repro.storage as storage

        cache = ResultCache(tmp_path / "cache")
        seen = []
        previous = storage.set_chaos_hook(
            lambda op, path, payload: seen.append((op, path))
        )
        try:
            cache.record_hit("a" * 8, tiny_spec())
            first = list(seen)
            seen.clear()
            cache.record_hit("b" * 8, tiny_spec(seed=1))
        finally:
            storage.set_chaos_hook(previous)
        log = cache.log_path
        assert first == [
            ("open_append", log),
            ("fsync_dir", cache.root),
            ("append_record", log),
        ]
        assert seen == [("open_append", log), ("append_record", log)]
        assert len(cache.hit_records()) == 2


# --------------------------------------------------------------------------- #
# client heartbeat deadline (injected clock, no daemon required)
# --------------------------------------------------------------------------- #


class _ScriptedSocket:
    """A socket stub: ``None`` entries raise timeout, bytes arrive as-is."""

    def __init__(self, script):
        self.script = list(script)

    def recv(self, _size):
        import socket as socket_module

        item = self.script.pop(0)
        if item is None:
            raise socket_module.timeout()
        return item


class _SteppingClock:
    """A fake monotonic clock advancing a fixed step per reading."""

    def __init__(self, step_s):
        self.now_s = 0.0
        self.step_s = step_s

    def __call__(self):
        self.now_s += self.step_s
        return self.now_s


class TestClientHeartbeat:
    def _client(self, tmp_path, **kwargs):
        from repro.service.client import ServiceClient

        return ServiceClient(tmp_path / "service.sock", **kwargs)

    def test_deadline_must_be_positive(self, tmp_path):
        with pytest.raises(ServiceError, match="heartbeat_deadline_s"):
            self._client(tmp_path, heartbeat_deadline_s=0.0)

    def test_silence_past_the_deadline_raises_typed_error(self, tmp_path):
        from repro.errors import ServiceUnavailableError

        client = self._client(
            tmp_path,
            timeout_s=1.0,
            heartbeat_deadline_s=1.0,
            clock=_SteppingClock(0.4),
        )
        sock = _ScriptedSocket([None] * 10)
        with pytest.raises(ServiceUnavailableError, match="heartbeat"):
            client._read_frame(sock, b"")

    def test_arriving_bytes_reset_the_silence_clock(self, tmp_path):
        client = self._client(
            tmp_path,
            timeout_s=1.0,
            heartbeat_deadline_s=1.0,
            clock=_SteppingClock(0.4),
        )
        # Quiet intervals interleave with progress bytes; no single gap
        # reaches the deadline, so the slow-but-alive daemon is trusted.
        sock = _ScriptedSocket([None, b"xy", None, None, b"z\n", b"junk"])
        line, rest = client._read_frame(sock, b"")
        assert line == b"xyz"
        assert rest == b""

    def test_without_deadline_the_plain_timeout_path_rules(self, tmp_path):
        client = self._client(tmp_path, timeout_s=0.1)
        sock = _ScriptedSocket([None])
        with pytest.raises(ServiceError, match="timed out"):
            client._read_frame(sock, b"")


class TestServiceState:
    def test_persist_load_round_trip(self, tmp_path):
        state = ServiceState(tmp_path / "state")
        spec = tiny_spec()
        state.persist_job(spec, "fp1", 3)
        record = state.load_job("fp1")
        assert record["schema"] == "service-job/v1"
        assert record["seq"] == 3
        assert JobSpec.from_dict(record["job"]) == spec

    def test_recover_orders_by_seq_and_skips_done_and_failed(self, tmp_path):
        state = ServiceState(tmp_path / "state")
        state.persist_job(tiny_spec(seed=1), "bbb", 2)
        state.persist_job(tiny_spec(seed=2), "aaa", 1)
        state.persist_job(tiny_spec(seed=3), "ccc", 3)
        state.persist_job(tiny_spec(seed=4), "ddd", 4)
        # ccc finished (artifact exists); ddd is quarantined.
        (state.cache_dir / "ccc.json").write_text("{}")
        state.mark_job_failed("ddd", {"code": "engine", "message": "boom"})
        recovered = state.recover()
        assert [job.fingerprint for job in recovered] == ["aaa", "bbb"]
        assert all(not job.resume for job in recovered)

    def test_recover_flags_resume_when_journal_exists(self, tmp_path):
        state = ServiceState(tmp_path / "state")
        state.persist_job(tiny_spec(), "fp1", 1)
        state.journal_path("fp1").write_text("")
        (job,) = state.recover()
        assert job.resume

    def test_snapshot_round_trip_and_schema_gate(self, tmp_path):
        state = ServiceState(tmp_path / "state")
        assert state.load_snapshot() is None
        state.write_snapshot(["a"], "b", {"jobs_completed": 2})
        payload = state.load_snapshot()
        assert payload["schema"] == STATE_SCHEMA
        assert payload["queued"] == ["a"]
        assert payload["inflight"] == "b"
        assert payload["counters"]["jobs_completed"] == 2
        state.snapshot_path.write_text('{"schema": "service-state/v9"}')
        with pytest.raises(ServiceError, match="schema"):
            state.load_snapshot()


# --------------------------------------------------------------------------- #
# daemon lifecycle (transport-free)
# --------------------------------------------------------------------------- #


class TestExperimentService:
    def test_submit_run_result_then_cache_hit(self, tmp_path, monkeypatch):
        service = ExperimentService(tmp_path / "state", queue_capacity=2)
        spec = tiny_spec()
        fp = spec.fingerprint()

        first = service.submit(spec.to_dict())
        assert first["type"] == "accepted"
        assert first["fingerprint"] == fp
        # The accepted job was durably persisted before the answer.
        assert service.state.load_job(fp)["fingerprint"] == fp

        pending = service.result(fp)
        assert pending["type"] == "pending"

        assert service.run_next_job(timeout_s=0) == fp
        done = service.result(fp)
        assert done["type"] == "completed"
        assert done["status"] == "complete"
        assert done["artifact"]["name"] == "comparison"

        # An identical resubmission must not touch the engine at all.
        def forbidden(*args, **kwargs):
            raise AssertionError("cache hit reached the execution layer")

        monkeypatch.setattr(
            "repro.service.daemon.execute_job", forbidden
        )
        hit = service.submit(spec.to_dict())
        assert hit["type"] == "cache_hit"
        assert hit["artifact"] == done["artifact"]
        assert hit["provenance"]["fingerprint"] == fp
        counters = service.counters()
        assert counters["jobs_admitted"] == 1
        assert counters["cache_hits"] == 1
        assert service.cache.hit_records()[0]["fingerprint"] == fp

    def test_full_queue_answers_retry_after(self, tmp_path):
        service = ExperimentService(tmp_path / "state", queue_capacity=1)
        assert service.submit(tiny_spec().to_dict())["type"] == "accepted"
        shed = service.submit(tiny_spec(seed=3).to_dict())
        assert shed["type"] == "retry_after"
        assert shed["retry_after_s"] > 0
        assert shed["capacity"] == 1
        assert service.counters()["jobs_shed"] == 1
        # A shed job was never persisted: nothing to recover later.
        assert (
            service.state.load_job(tiny_spec(seed=3).fingerprint()) is None
        )

    def test_malformed_spec_answers_error(self, tmp_path):
        service = ExperimentService(tmp_path / "state")
        response = service.submit({"kind": "frobnicate"})
        assert response["type"] == "error"
        assert response["error"]["code"] == "service"

    def test_poisoned_job_is_quarantined_not_fatal(
        self, tmp_path, monkeypatch
    ):
        service = ExperimentService(tmp_path / "state")
        spec = tiny_spec()
        fp = spec.fingerprint()
        service.submit(spec.to_dict())

        def poisoned(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr("repro.service.daemon.execute_job", poisoned)
        assert service.run_next_job(timeout_s=0) == fp  # did not raise
        failed = service.result(fp)
        assert failed["type"] == "failed"
        assert "engine exploded" in failed["error"]["message"]
        assert service.counters()["jobs_failed"] == 1
        # Quarantine is durable and recovery leaves it alone.
        assert service.state.load_job(fp)["status"] == "failed"
        revived = ExperimentService(tmp_path / "state")
        assert revived.recovered_jobs == 0
        assert revived.result(fp)["type"] == "failed"

    def test_unknown_fingerprint_answers_error(self, tmp_path):
        service = ExperimentService(tmp_path / "state")
        assert service.result("no-such-job")["type"] == "error"

    def test_daemon_owns_one_warm_pool_for_its_lifetime(self, tmp_path):
        # Serial daemons never pay for a pool; parallel daemons keep one
        # lazy warm pool that drain() closes with the queue.
        serial = ExperimentService(tmp_path / "serial")
        assert serial.pool is None
        serial.drain()

        service = ExperimentService(tmp_path / "state", workers=2)
        assert service.pool is not None
        assert not service.pool.alive  # lazy: spawns on first parallel job
        service.drain()
        with pytest.raises(RuntimeError):
            service.pool.submit(print)

    def test_subscribers_get_progress_and_completed(self, tmp_path):
        service = ExperimentService(tmp_path / "state")
        spec = tiny_spec(repetitions=2)
        fp = spec.fingerprint()
        events = []
        service.submit(spec.to_dict())
        service.subscribe(fp, events.append)
        service.run_next_job(timeout_s=0)
        kinds = [event["type"] for event in events]
        assert kinds == ["progress", "progress", "completed"]
        assert [e["done"] for e in events[:-1]] == [1, 2]
        assert events[-1]["status"] == "complete"

    def test_dead_subscriber_never_kills_a_job(self, tmp_path):
        service = ExperimentService(tmp_path / "state")
        spec = tiny_spec()
        service.submit(spec.to_dict())
        service.subscribe(
            spec.fingerprint(),
            lambda event: (_ for _ in ()).throw(OSError("gone")),
        )
        assert service.run_next_job(timeout_s=0) == spec.fingerprint()
        assert service.counters()["jobs_completed"] == 1

    def test_drain_writes_snapshot_and_manifest(self, tmp_path):
        service = ExperimentService(tmp_path / "state", queue_capacity=2)
        spec = tiny_spec()
        service.submit(spec.to_dict())
        service.run_next_job(timeout_s=0)
        summary = service.drain()
        assert summary["queued"] == []
        assert summary["counters"]["jobs_completed"] == 1
        snapshot = service.state.load_snapshot()
        assert snapshot["schema"] == STATE_SCHEMA
        manifest_path = tmp_path / "state" / "service-state.manifest.json"
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["extra"]["service"]["jobs_completed"] == 1
        # Admissions are closed after drain: submissions shed.
        assert service.submit(tiny_spec(seed=5).to_dict())["type"] == (
            "retry_after"
        )

    def test_stats_exposes_live_telemetry(self, tmp_path):
        """The ``stats`` payload: summary, quarantine, per-phase timings —
        all from in-memory state, no drain required."""
        service = ExperimentService(tmp_path / "state", queue_capacity=4)
        with obs.use_recorder(obs.MetricsRecorder()):
            spec = tiny_spec()
            service.submit(spec.to_dict())
            service.run_next_job(timeout_s=0)
            assert service.submit(spec.to_dict())["type"] == "cache_hit"
            stats = service.stats()
            phases = stats["phases"]
        summary = stats["service"]
        assert summary["queue_depth"] == 0
        assert summary["inflight"] == 0
        assert summary["capacity"] == 4
        assert summary["jobs_completed"] == 1
        assert summary["cache_misses"] == 1
        assert summary["cache_hits"] == 1
        assert stats["quarantined"] == 0
        # The daemon recorder saw the job's span profile merged back in.
        assert "service.job" in phases
        assert "engine.slot" in phases
        assert any(name.startswith("engine.phase.") for name in phases)
        assert json.loads(json.dumps(stats)) == stats

    def test_heartbeat_carries_queue_and_cache_counters(self, tmp_path):
        service = ExperimentService(tmp_path / "state", queue_capacity=4)
        spec = tiny_spec()
        service.submit(spec.to_dict())
        service.run_next_job(timeout_s=0)
        service.submit(spec.to_dict())  # served from cache
        beat = service.heartbeat()
        assert beat["type"] == "heartbeat"
        assert beat["queue_depth"] == 0
        assert beat["jobs_completed"] == 1
        assert beat["cache_hits"] == 1
        assert beat["cache_misses"] == 1

    def test_drained_manifest_renders_a_service_section(self, tmp_path):
        """The manifest drain() writes next to the snapshot feeds
        ``obs report`` a SERVICE section with the real counters."""
        service = ExperimentService(tmp_path / "state", queue_capacity=2)
        spec = tiny_spec()
        service.submit(spec.to_dict())
        service.run_next_job(timeout_s=0)
        service.submit(spec.to_dict())  # cache hit
        service.drain()
        manifest_path = tmp_path / "state" / "service-state.manifest.json"
        manifest = obs.load_manifest(manifest_path)
        text = render_report(manifest)
        assert "SERVICE" in text
        section = text[text.index("SERVICE"):]
        assert "jobs_completed: 1" in section
        assert "cache_hits:     1" in section
        assert "cache_misses:   1" in section
        assert "queue_depth:    0" in section


# --------------------------------------------------------------------------- #
# crash recovery: the byte-identity contract
# --------------------------------------------------------------------------- #


class TestCrashRecovery:
    def _reference_bytes(self, tmp_path, spec):
        target = tmp_path / "reference.json"
        save_job_artifact(run_job(spec), target)
        return target.read_bytes()

    def test_restart_finishes_persisted_backlog_byte_identically(
        self, tmp_path
    ):
        spec_a = tiny_spec(repetitions=2)
        spec_b = tiny_spec(seed=7)
        reference_a = self._reference_bytes(tmp_path, spec_a)

        state_dir = tmp_path / "state"
        first = ExperimentService(state_dir, queue_capacity=1)
        assert first.submit(spec_a.to_dict())["type"] == "accepted"
        entry = first.queue.take(timeout_s=0)  # A goes in-flight
        assert first.submit(spec_b.to_dict())["type"] == "accepted"
        del first, entry  # SIGKILL: nothing ran, nothing was drained

        # Even with capacity 1, BOTH persisted jobs must come back —
        # recovery bypasses admission control (they were admitted once).
        revived = ExperimentService(state_dir, queue_capacity=1)
        assert revived.recovered_jobs == 2
        assert revived.counters()["jobs_recovered"] == 2
        assert revived.run_next_job(timeout_s=0) == spec_a.fingerprint()
        assert revived.run_next_job(timeout_s=0) == spec_b.fingerprint()
        artifact = revived.cache.artifact_path(spec_a.fingerprint())
        assert artifact.read_bytes() == reference_a

    def test_torn_journal_resumes_byte_identically(self, tmp_path):
        """Kill mid-journal-record: the torn tail is discarded, the
        durable prefix is replayed (not recomputed), and the finished
        artifact — RNG positions included — is byte-identical."""
        spec = tiny_spec(repetitions=3)
        fp = spec.fingerprint()
        reference = self._reference_bytes(tmp_path, spec)

        state_dir = tmp_path / "state"
        first = ExperimentService(state_dir)
        first.submit(spec.to_dict())
        first.run_next_job(timeout_s=0)
        journal = first.state.journal_path(fp)
        completed_positions = {
            key: entry.measurement.rng_positions
            for key, entry in load_checkpoint(journal).entries.items()
        }
        # Tear the last record mid-line and erase the artifact: the
        # on-disk picture of a SIGKILL during the final repetition.
        torn = journal.read_bytes()[:-20]
        journal.write_bytes(torn)
        first.cache.artifact_path(fp).unlink()
        del first

        revived = ExperimentService(state_dir)
        assert revived.recovered_jobs == 1
        assert revived.run_next_job(timeout_s=0) == fp
        assert revived.counters()["jobs_resumed"] == 1
        assert revived.cache.artifact_path(fp).read_bytes() == reference
        resumed_positions = {
            key: entry.measurement.rng_positions
            for key, entry in load_checkpoint(journal).entries.items()
        }
        assert resumed_positions == completed_positions
        # ... and equal a fresh in-process recomputation, rep by rep.
        config = spec.config()
        assert resumed_positions == {
            (0, rep): run_comparison_repetition(config, rep).rng_positions
            for rep in range(config.repetitions)
        }


# --------------------------------------------------------------------------- #
# socket transport end to end (in-process daemon, real AF_UNIX socket)
# --------------------------------------------------------------------------- #


class TestServerTransport:
    @pytest.fixture()
    def server(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceServer

        service = ExperimentService(tmp_path / "state", queue_capacity=2)
        server = ServiceServer(
            service,
            tmp_path / "service.sock",
            heartbeat_s=0.2,
            poll_s=0.05,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(tmp_path / "service.sock", timeout_s=120.0)
        for _ in range(200):
            try:
                client.ping()
                break
            except ServiceError:
                obs.clock.sleep_s(0.01)
        else:
            pytest.fail("server never came up")
        yield server, client
        server.request_shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_ping_status_and_protocol_error(self, server, tmp_path):
        import socket as socket_module

        _server, client = server
        assert client.ping()["type"] == "pong"
        status = client.status()
        assert status["type"] == "status_report"
        assert status["capacity"] == 2
        # Malformed traffic gets a typed error; the daemon keeps serving.
        raw = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        raw.settimeout(30.0)
        raw.connect(str(tmp_path / "service.sock"))
        raw.sendall(b"this is not json\n")
        response = json.loads(raw.makefile().readline())
        raw.close()
        assert response["type"] == "error"
        assert client.ping()["type"] == "pong"

    def test_stats_verb_answers_live(self, server):
        _server, client = server
        stats = client.stats()
        assert stats["type"] == "stats_report"
        assert stats["schema"] == protocol.SERVICE_SCHEMA
        assert stats["service"]["capacity"] == 2
        assert stats["quarantined"] == 0
        assert isinstance(stats["phases"], dict)
        spec = tiny_spec(seed=31)
        final = client.submit(spec, stream=True)
        assert final["type"] == "completed"
        after = client.stats()
        assert after["service"]["jobs_completed"] == 1
        assert after["service"]["cache_misses"] == 1

    def test_streamed_submit_and_cached_resubmit(self, server):
        _server, client = server
        spec = tiny_spec(repetitions=2)
        events = []
        final = client.submit(spec, stream=True, on_event=events.append)
        assert final["type"] == "completed"
        assert final["status"] == "complete"
        kinds = [event["type"] for event in events]
        assert kinds[0] == "accepted"
        assert "progress" in kinds
        again = client.submit(spec)
        assert again["type"] == "cache_hit"
        assert (
            client.wait_for_result(spec.fingerprint())["type"] == "completed"
        )

    def test_shutdown_request_drains_and_snapshots(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceServer

        service = ExperimentService(tmp_path / "state")
        server = ServiceServer(
            service, tmp_path / "s.sock", heartbeat_s=0.2, poll_s=0.05
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(tmp_path / "s.sock", timeout_s=120.0)
        for _ in range(200):
            try:
                client.ping()
                break
            except ServiceError:
                obs.clock.sleep_s(0.01)
        spec = tiny_spec()
        assert client.submit(spec)["type"] == "accepted"
        assert client.shutdown()["type"] == "draining"
        thread.join(timeout=60)
        assert not thread.is_alive()
        # The drain finished the backlog before exiting.
        assert service.cache.has(spec.fingerprint())
        assert service.state.load_snapshot()["schema"] == STATE_SCHEMA
        assert not (tmp_path / "s.sock").exists()


# --------------------------------------------------------------------------- #
# obs report: the SERVICE section
# --------------------------------------------------------------------------- #


def test_report_renders_service_section():
    manifest = build_manifest(
        extra={
            "service": {
                "queue_depth": 2,
                "inflight": 1,
                "capacity": 4,
                "jobs_admitted": 9,
                "jobs_shed": 3,
                "cache_hits": 5,
            }
        }
    )
    text = render_report(manifest)
    assert "SERVICE" in text
    assert "queue_depth:    2" in text
    assert "jobs_shed:      3" in text
    assert "cache_hits:     5" in text
