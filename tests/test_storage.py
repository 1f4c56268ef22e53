"""Tests for the NDJSON record-file primitives in :mod:`repro.storage`.

Checkpoint journals and both trace formats share these helpers, so the
rules pinned here — what makes a record line valid, what a crash may
tear, and what one durable append costs — hold for all three file kinds.
"""

from __future__ import annotations

import os

import pytest

import repro.storage as storage
from repro.storage import (
    RecordError,
    append_record,
    open_append,
    read_records,
    truncate_torn_tail,
    write_records,
)


@pytest.fixture
def hook_calls():
    seen = []
    previous = storage.set_chaos_hook(
        lambda op, path, payload: seen.append((op, path))
    )
    yield seen
    storage.set_chaos_hook(previous)


class TestReadRecords:
    def test_whole_file_round_trips(self, tmp_path):
        path = tmp_path / "t.ndjson"
        records = [{"schema": "x/v1"}, {"b": 2, "a": [1, 2.5]}]
        write_records(path, records)
        assert path.read_text() == (
            '{"schema": "x/v1"}\n{"a": [1, 2.5], "b": 2}\n'
        )
        assert read_records(path) == (records, path.stat().st_size, False)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_bytes(b"")
        assert read_records(path) == ([], 0, False)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_bytes(b'{"a": 1}\n\n  \n{"b": 2}\n\n')
        assert read_records(path) == ([{"a": 1}, {"b": 2}], 23, False)

    def test_final_line_without_newline_is_torn(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_bytes(b'{"a": 1}\n{"b": 2}')
        assert read_records(path) == ([{"a": 1}], 9, True)

    @pytest.mark.parametrize("tail", [b'{"b": \n', b"[1, 2]\n", b'{"b"'])
    def test_final_line_that_is_no_object_is_torn(self, tmp_path, tail):
        path = tmp_path / "t.ndjson"
        path.write_bytes(b'{"a": 1}\n' + tail + b"\n\n")
        assert read_records(path) == ([{"a": 1}], 9, True)

    @pytest.mark.parametrize("bad", [b'{"b": ', b'"text"', b"\xff\xfe"])
    def test_interior_damage_names_its_line(self, tmp_path, bad):
        path = tmp_path / "t.ndjson"
        path.write_bytes(b'{"a": 1}\n\n' + bad + b'\n{"c": 3}\n')
        with pytest.raises(RecordError, match="line 3") as excinfo:
            read_records(path)
        assert excinfo.value.line == 3
        assert isinstance(excinfo.value, ValueError)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_records(tmp_path / "absent.ndjson")


class _CountingHandle:
    """A binary handle that counts writes and flushes."""

    def __init__(self, handle):
        self._handle = handle
        self.writes = []
        self.flushes = 0

    def write(self, data):
        self.writes.append(data)
        return self._handle.write(data)

    def flush(self):
        self.flushes += 1
        self._handle.flush()

    def fileno(self):
        return self._handle.fileno()


class TestAppend:
    def test_one_write_one_flush_one_fsync(self, tmp_path, monkeypatch):
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1]
        )
        path = tmp_path / "j.ndjson"
        with open(path, "wb") as raw:
            handle = _CountingHandle(raw)
            append_record(handle, {"b": 1, "a": 2})
        assert handle.writes == [b'{"a": 2, "b": 1}\n']
        assert handle.flushes == 1
        assert len(fsyncs) == 1

    def test_open_append_fsyncs_the_directory_only_on_creation(
        self, tmp_path, hook_calls
    ):
        path = tmp_path / "j.ndjson"
        with open_append(path) as handle:
            append_record(handle, {"n": 1})
        assert hook_calls == [
            ("open_append", path),
            ("fsync_dir", tmp_path),
            ("append_record", path),
        ]
        hook_calls.clear()
        with open_append(path) as handle:
            append_record(handle, {"n": 2})
        assert hook_calls == [("open_append", path), ("append_record", path)]
        assert read_records(path) == ([{"n": 1}, {"n": 2}], 18, False)

    def test_truncate_torn_tail_restores_a_clean_boundary(self, tmp_path):
        path = tmp_path / "j.ndjson"
        path.write_bytes(b'{"n": 1}\n{"n": 2}\n{"n"')
        records, valid_bytes, torn = read_records(path)
        assert torn
        truncate_torn_tail(path, valid_bytes)
        with open_append(path) as handle:
            append_record(handle, {"n": 3})
        assert read_records(path)[0] == records + [{"n": 3}]
