"""Tests for repro.chaos.schedule: kill/hang-at-point worker chaos.

The wrapper must be invisible when the schedule is empty, misbehave on
exactly the first attempt of scheduled items (marker files, not process
memory — the crash is the point), and refuse to ``os._exit`` the main
process when the supervisor runs inline.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

import repro.chaos.schedule as schedule_module
from repro.chaos import ChaosSchedule, ChaosWorker, item_key
from repro.errors import ChaosError


def _describe(item):
    return repr(item)


@dataclass(frozen=True)
class _Item:
    repetition: int
    payload: str = "x"


class TestItemKey:
    def test_repetition_attribute_is_the_natural_key(self):
        assert item_key(_Item(repetition=7)) == 7


class TestChaosSchedule:
    def test_kill_and_hang_must_not_overlap(self):
        with pytest.raises(ChaosError, match="both kill and hang"):
            ChaosSchedule(
                kill_first_attempt=(1, 2), hang_first_attempt=(2, 3)
            )

    def test_hang_duration_must_be_positive(self):
        with pytest.raises(ChaosError, match="hang_s"):
            ChaosSchedule(hang_s=0.0)


class TestChaosWorker:
    def test_empty_schedule_is_a_pure_passthrough(self, tmp_path):
        worker = ChaosWorker(_describe, ChaosSchedule(), str(tmp_path))
        item = _Item(repetition=21)
        assert worker(item) == repr(item)
        assert list(tmp_path.iterdir()) == []  # no markers written

    def test_kill_in_the_main_process_is_refused_loudly(self, tmp_path):
        schedule = ChaosSchedule(kill_first_attempt=(3,))
        worker = ChaosWorker(_describe, schedule, str(tmp_path))
        # Inline execution (workers=1) must never os._exit the run.
        with pytest.raises(ChaosError, match="main process"):
            worker(_Item(repetition=3))

    def test_second_attempt_behaves(self, tmp_path):
        item = _Item(repetition=5)
        schedule = ChaosSchedule(kill_first_attempt=(5,))
        worker = ChaosWorker(_describe, schedule, str(tmp_path))
        with pytest.raises(ChaosError):
            worker(item)  # first attempt misbehaves (refused inline)
        # The marker survives the "crash"; the retry runs clean.
        assert (tmp_path / "chaos-item-5.attempted").exists()
        assert worker(item) == repr(item)

    def test_hang_sleeps_once_then_proceeds(self, tmp_path, monkeypatch):
        naps = []
        monkeypatch.setattr(schedule_module, "sleep_s", naps.append)
        schedule = ChaosSchedule(hang_first_attempt=(7,), hang_s=3.0)
        worker = ChaosWorker(_describe, schedule, str(tmp_path))
        item = _Item(repetition=7)
        assert worker(item) == repr(item)
        assert worker(item) == repr(item)
        assert naps == [3.0]  # slept exactly once, on the first attempt
        assert (tmp_path / "chaos-item-7.attempted").exists()

    def test_labels_keep_marker_namespaces_apart(self, tmp_path, monkeypatch):
        monkeypatch.setattr(schedule_module, "sleep_s", lambda _s: None)
        schedule = ChaosSchedule(hang_first_attempt=(1,), hang_s=0.001)
        first = ChaosWorker(_describe, schedule, str(tmp_path), label="run-a")
        second = ChaosWorker(_describe, schedule, str(tmp_path), label="run-b")
        first(_Item(repetition=1))
        # run-b has its own first-attempt ledger: its marker is fresh.
        assert (tmp_path / "run-a-item-1.attempted").exists()
        assert not (tmp_path / "run-b-item-1.attempted").exists()
        second(_Item(repetition=1))
        assert (tmp_path / "run-b-item-1.attempted").exists()
