"""Tests for repro.chaos.storage: scheduled durable-write faults.

The contract under test: a fault schedule is plain data (deterministic,
replayable), an empty schedule leaves the write path untouched, and an
injected fault looks exactly like the real failure — ``ENOSPC``/``EIO``
errno, torn debris in the target file — so the recovery code exercised
is the code production would run.
"""

from __future__ import annotations

import errno
import json

import pytest

import repro.obs as obs
import repro.storage as storage
from repro.chaos import (
    StorageChaos,
    StorageFault,
    StorageFaultPlan,
    tear_ndjson_tail,
)
from repro.errors import ChaosError, CheckpointError
from repro.harness import CheckpointWriter, load_checkpoint
from repro.obs.recorder import MetricsRecorder
from repro.storage import atomic_write_text


@pytest.fixture(autouse=True)
def _null_recorder_between_tests():
    obs.set_recorder(None)
    yield
    obs.set_recorder(None)


class TestPlanValidation:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ChaosError, match="unknown storage fault kind"):
            StorageFault(0, "cosmic-ray")

    def test_negative_index_is_rejected(self):
        with pytest.raises(ChaosError, match="write_index"):
            StorageFault(-1, "eio")

    def test_payload_fraction_bounds(self):
        with pytest.raises(ChaosError, match="payload_fraction"):
            StorageFault(0, "torn", payload_fraction=1.0)
        StorageFault(0, "torn", payload_fraction=0.0)  # legal edge

    def test_duplicate_index_is_rejected(self):
        with pytest.raises(ChaosError, match="more than once"):
            StorageFaultPlan(
                (StorageFault(2, "eio"), StorageFault(2, "enospc"))
            )


class TestStorageChaos:
    def test_enospc_fires_at_the_scheduled_write_only(self, tmp_path):
        recorder = MetricsRecorder()
        obs.set_recorder(recorder)
        plan = StorageFaultPlan((StorageFault(1, "enospc"),))
        with StorageChaos(plan) as chaos:
            atomic_write_text(tmp_path / "a.json", "{}")
            with pytest.raises(OSError) as caught:
                atomic_write_text(tmp_path / "b.json", "{}")
            atomic_write_text(tmp_path / "c.json", "{}")
        assert caught.value.errno == errno.ENOSPC
        assert "chaos: injected enospc" in str(caught.value)
        assert (tmp_path / "a.json").exists()
        assert not (tmp_path / "b.json").exists()  # atomicity held
        assert (tmp_path / "c.json").exists()
        assert chaos.writes_seen == 3
        assert chaos.injected == [(1, "enospc", str(tmp_path / "b.json"))]
        assert recorder.counters["chaos.storage.injected"] == 1

    def test_torn_fault_leaves_unparseable_debris_in_the_target(
        self, tmp_path
    ):
        payload = json.dumps({"name": "comparison", "rows": list(range(40))})
        plan = StorageFaultPlan(
            (StorageFault(0, "torn", payload_fraction=0.5),)
        )
        target = tmp_path / "artifact.json"
        with StorageChaos(plan):
            with pytest.raises(OSError) as caught:
                atomic_write_text(target, payload)
        assert caught.value.errno == errno.EIO
        # The killed-writer debris: a strict payload prefix, not valid JSON.
        debris = target.read_text()
        assert debris == payload[: len(debris)]
        assert 0 < len(debris) < len(payload)
        with pytest.raises(json.JSONDecodeError):
            json.loads(debris)

    def test_match_filter_does_not_advance_the_counter(self, tmp_path):
        plan = StorageFaultPlan(
            (StorageFault(0, "eio"),), match="artifact"
        )
        with StorageChaos(plan) as chaos:
            atomic_write_text(tmp_path / "manifest.json", "{}")
            atomic_write_text(tmp_path / "other.json", "{}")
            with pytest.raises(OSError):
                atomic_write_text(tmp_path / "artifact.json", "{}")
        assert chaos.writes_seen == 1
        assert chaos.injected == [(0, "eio", str(tmp_path / "artifact.json"))]

    def test_empty_plan_is_invisible(self, tmp_path):
        with StorageChaos(StorageFaultPlan()) as chaos:
            atomic_write_text(tmp_path / "a.json", "{}")
        assert chaos.writes_seen == 1
        assert chaos.injected == []
        assert (tmp_path / "a.json").read_text() == "{}"

    def test_hook_is_restored_on_exit(self, tmp_path):
        plan = StorageFaultPlan((StorageFault(0, "enospc"),))
        with StorageChaos(plan):
            with pytest.raises(OSError):
                atomic_write_text(tmp_path / "a.json", "{}")
        atomic_write_text(tmp_path / "a.json", "{}")  # hook gone
        assert (tmp_path / "a.json").read_text() == "{}"

    def test_not_reentrant(self):
        chaos = StorageChaos(StorageFaultPlan())
        with chaos:
            with pytest.raises(ChaosError, match="not re-entrant"):
                chaos.__enter__()

    def test_nested_scopes_restore_the_outer_hook(self, tmp_path):
        outer = StorageFaultPlan((StorageFault(2, "eio"),))
        with StorageChaos(outer) as outer_chaos:
            with StorageChaos(StorageFaultPlan()) as inner:
                atomic_write_text(tmp_path / "inner.json", "{}")
            assert inner.writes_seen == 1
            # Back on the outer plan: its counter resumes from where the
            # inner scope shadowed it.
            atomic_write_text(tmp_path / "after.json", "{}")
            assert outer_chaos.writes_seen == 1


@pytest.fixture
def enospc_on():
    """Install a storage hook raising ``ENOSPC`` before each ``op`` call."""
    previous = storage.set_chaos_hook(None)

    def install(op):
        def hook(seen_op, path, payload):
            if seen_op == op:
                raise OSError(errno.ENOSPC, f"chaos: no space for {path}")

        storage.set_chaos_hook(hook)

    yield install
    storage.set_chaos_hook(previous)


class TestAppendFaults:
    """A failed record append surfaces as its caller's domain error."""

    def test_journal_append_raises_checkpoint_error(self, tmp_path, enospc_on):
        path = tmp_path / "sweep.ckpt.ndjson"
        with CheckpointWriter.create(path, "sweep", "hash", 2) as writer:
            enospc_on("append_record")
            with pytest.raises(
                CheckpointError, match="cannot append to checkpoint journal"
            ) as caught:
                writer.append_failure({"kind": "failure", "point": 0})
        assert caught.value.__cause__.errno == errno.ENOSPC
        assert writer.records_written == 1  # the header only
        assert len(load_checkpoint(path).failures) == 0

    def test_journal_tail_repair_raises_checkpoint_error(
        self, tmp_path, enospc_on
    ):
        path = tmp_path / "sweep.ckpt.ndjson"
        with CheckpointWriter.create(path, "sweep", "hash", 2) as writer:
            writer.append_failure({"kind": "failure", "point": 0})
        tear_ndjson_tail(path)
        state = load_checkpoint(path)
        assert state.torn_tail
        enospc_on("truncate_torn_tail")
        with pytest.raises(
            CheckpointError, match="cannot reopen checkpoint journal"
        ):
            CheckpointWriter.append_to(state)

    def test_storage_chaos_schedules_whole_file_writes_only(self, tmp_path):
        plan = StorageFaultPlan((StorageFault(0, "enospc"),))
        with StorageChaos(plan) as chaos:
            with storage.open_append(tmp_path / "j.ndjson") as handle:
                storage.append_record(handle, {"n": 1})
            assert chaos.writes_seen == 0
            with pytest.raises(OSError):
                atomic_write_text(tmp_path / "a.json", "{}")
        assert chaos.injected == [(0, "enospc", str(tmp_path / "a.json"))]


class TestTearNdjsonTail:
    def test_tears_only_the_final_line(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        lines = [json.dumps({"record": index}) for index in range(3)]
        path.write_text("\n".join(lines) + "\n")
        removed = tear_ndjson_tail(path)
        assert removed > 0
        raw = path.read_bytes()
        assert not raw.endswith(b"\n")
        kept = raw.split(b"\n")
        # The first two records survive intact; the last is a torn prefix.
        assert [json.loads(line) for line in kept[:2]] == [
            {"record": 0},
            {"record": 1},
        ]
        assert kept[2] == lines[2].encode()[: len(kept[2])]
        with pytest.raises(json.JSONDecodeError):
            json.loads(kept[2])

    def test_single_line_file_can_be_torn_to_nothing(self, tmp_path):
        path = tmp_path / "one.ndjson"
        path.write_text('{"only": 1}\n')
        removed = tear_ndjson_tail(path, keep_fraction=0.0)
        assert removed == 12
        assert path.read_bytes() == b""

    def test_empty_file_has_nothing_to_tear(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        with pytest.raises(ChaosError, match="no record line"):
            tear_ndjson_tail(path)

    def test_keep_fraction_bounds(self, tmp_path):
        path = tmp_path / "j.ndjson"
        path.write_text('{"a": 1}\n')
        with pytest.raises(ChaosError, match="keep_fraction"):
            tear_ndjson_tail(path, keep_fraction=1.0)
