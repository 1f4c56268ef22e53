"""Durable filesystem primitives shared across the package.

Checkpoint journals, sweep artifacts, manifests, and service state all
promise to survive a crash.  ``os.replace`` alone only guarantees that a
*process* kill never exposes a half-written file; after a power loss the
rename itself may be lost unless the parent directory entry is flushed
too.  These helpers centralize the full discipline: write a temporary
sibling, fsync the file, rename over the target, then fsync the parent
directory.

The same module owns the NDJSON record files (``checkpoint/v1``
journals, ``trace/v1`` and ``trace/v2`` files): what makes a record line
valid, what a crash may tear, and how a record is appended durably.  A
record line is one JSON object with sorted keys, ended by a newline.
Journals grow one fsynced append at a time, so a ``SIGKILL`` can tear only the final line;
trace files are written whole through :func:`write_records`.

Every helper raises plain :class:`OSError` or :class:`ValueError`;
callers wrap it in their own domain error (``CheckpointError``,
``ObservabilityError``, ...) so the failure names the file at fault.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = [
    "fsync_dir",
    "atomic_write_text",
    "set_chaos_hook",
    "RecordError",
    "iter_records",
    "read_records",
    "write_records",
    "open_append",
    "append_record",
    "truncate_torn_tail",
]

#: Chaos injection point (:mod:`repro.chaos.storage`): ``None`` in
#: production.  When installed, the hook observes every durable write
#: *before* it happens — called with the operation's name
#: (``atomic_write_text``, ``fsync_dir``, ``open_append``,
#: ``append_record``, ``truncate_torn_tail``), the file, and the text
#: about to land, if any — and may raise :class:`OSError` to simulate a
#: full disk, an I/O fault, or a torn write.  The hook must never consume
#: experiment RNG — fault schedules are precomputed on named chaos
#: streams — so an installed-but-empty schedule leaves runs bit-identical.
_chaos_hook: Optional[Callable[[str, Path, Optional[str]], None]] = None


def set_chaos_hook(
    hook: Optional[Callable[[str, Path, Optional[str]], None]],
) -> Optional[Callable[[str, Path, Optional[str]], None]]:
    """Install (or, with ``None``, remove) the storage chaos hook.

    Returns the previously installed hook so scoped installers
    (:class:`repro.chaos.storage.StorageChaos`) can restore it.
    """
    global _chaos_hook
    previous = _chaos_hook
    _chaos_hook = hook
    return previous


def fsync_dir(path: Union[str, Path]) -> None:
    """Flush a directory's entries to stable storage.

    After creating or renaming a file, the new directory entry lives in
    the page cache until the directory itself is fsynced; without this a
    power loss can silently undo an ``os.replace`` that already returned.
    """
    if _chaos_hook is not None:
        _chaos_hook("fsync_dir", Path(path), None)
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Write ``text`` to ``path`` atomically and durably.

    The payload lands in a temporary sibling that is fsynced, renamed
    over the target via :func:`os.replace`, and sealed with a parent
    directory fsync — so readers never observe a partial file and the
    completed write survives power loss.  On failure the temporary file
    is removed and the original ``OSError`` propagates.
    """
    target = Path(path)
    if _chaos_hook is not None:
        _chaos_hook("atomic_write_text", target, text)
    temporary = target.with_name(target.name + ".tmp")
    try:
        with open(temporary, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
        fsync_dir(target.parent)
    except OSError:
        try:
            temporary.unlink()
        except OSError:
            pass
        raise


class RecordError(ValueError):
    """A record line before the final one is not a complete JSON object.

    Only the final line can tear in a crash, so damage anywhere else
    means something other than a crash touched the file.
    """

    def __init__(self, line: int) -> None:
        super().__init__(f"line {line}: not a complete JSON object")
        self.line = line


def _record_line(record: Dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def iter_records(handle: BinaryIO) -> Iterator[Tuple[int, Optional[Dict]]]:
    """Stream an NDJSON record file opened in binary mode, line by line.

    Yields one ``(offset, record)`` pair per record line, ``offset`` being
    the byte where the line starts; blank lines are skipped.  The final
    non-blank line is *torn* when it does not parse as a JSON object or
    has no newline: it comes last, as ``(offset, None)``.  Any earlier
    line failing to parse raises :class:`RecordError` with its 1-based
    line number once a later non-blank line shows it was not the last.
    Only one line is held at a time, so a reader that consumes the
    stream needs memory for one record, not for the file.
    """
    offset = 0
    bad: Optional[Tuple[int, int]] = None  # (line number, offset) unparsed
    for number, line in enumerate(handle, 1):
        start = offset
        offset += len(line)
        if not line.strip():
            continue
        if bad is not None:
            raise RecordError(bad[0])
        record = None
        if line.endswith(b"\n"):
            try:
                record = json.loads(line)
            except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
                pass
        if isinstance(record, dict):
            yield start, record
        else:
            bad = (number, start)
    if bad is not None:
        yield bad[1], None


def read_records(path: Union[str, Path]) -> Tuple[List[Dict], int, bool]:
    """Parse a whole NDJSON record file: ``(records, valid_bytes, torn)``.

    :func:`iter_records` over the file, collected.  ``valid_bytes`` ends
    where a torn final line starts; without one it is the file size.
    """
    records: List[Dict] = []
    with open(path, "rb") as handle:
        for offset, record in iter_records(handle):
            if record is None:
                return records, offset, True
            records.append(record)
        return records, handle.tell(), False


def write_records(path: Union[str, Path], records: Iterable[Dict]) -> None:
    """Write a whole record file atomically (:func:`atomic_write_text`)."""
    atomic_write_text(path, "".join(_record_line(record) for record in records))


def open_append(path: Union[str, Path]) -> BinaryIO:
    """Open a record file for :func:`append_record`, creating it durably.

    Appends fsync the file, but a new file's *existence* is a directory
    entry: when this call creates the file it fsyncs the parent directory
    too, or a power loss could drop the whole file, records and all.
    """
    target = Path(path)
    if _chaos_hook is not None:
        _chaos_hook("open_append", target, None)
    try:
        handle = open(target, "xb")
    except FileExistsError:
        return open(target, "ab")
    try:
        fsync_dir(target.parent)
    except OSError:
        handle.close()
        raise
    return handle


def append_record(handle: BinaryIO, record: Dict) -> None:
    """Append one record line: one write, one flush, one fsync.

    A record therefore exists whole or not at all once this returns,
    except for the final line a kill inside the write may tear.
    """
    line = _record_line(record)
    if _chaos_hook is not None:
        _chaos_hook("append_record", Path(handle.name), line)
    handle.write(line.encode("utf-8"))
    handle.flush()
    os.fsync(handle.fileno())


def truncate_torn_tail(path: Union[str, Path], valid_bytes: int) -> None:
    """Cut a record file back to its valid prefix and fsync the result."""
    if _chaos_hook is not None:
        _chaos_hook("truncate_torn_tail", Path(path), None)
    with open(path, "r+b") as handle:
        handle.truncate(valid_bytes)
        os.fsync(handle.fileno())
