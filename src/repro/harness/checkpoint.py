"""Append-only checkpoint journals (schema ``checkpoint/v1``).

A journal is an NDJSON file living next to the ``save_sweep`` artifact it
protects.  Line one is a header naming the schema, the sweep, and a
BLAKE2b fingerprint of the exact sweep definition (name, point configs,
repetition counts — via :func:`repro.obs.manifest.config_fingerprint`);
every following line records one completed ``(point, repetition)``
:class:`~repro.experiments.runner.RepetitionMeasurement` (plus the
worker's metric snapshot, when one was collected) or one quarantined-item
:class:`~repro.harness.supervisor.FailureRecord`.

Crash-safety contract
---------------------
* The line discipline is :mod:`repro.storage`'s: appends are one
  ``write()`` of a full ``\\n``-terminated line, flushed and fsynced
  before the append returns
  (:func:`~repro.storage.append_record`) — a record either exists whole
  or not at all, except for the final line a ``SIGKILL`` may tear.
* The loader validates every line without touching the file; a torn
  *tail* (the last line fails to parse or lacks its newline) is dropped
  and counted on ``harness.checkpoint.torn_tail``.  Only
  :meth:`CheckpointWriter.append_to` repairs it, truncating the file to
  the last valid record so subsequent appends start clean.
  Corruption anywhere *before* the tail is not a torn write and raises
  :class:`~repro.errors.CheckpointError`.
* Replaying a journal is bit-exact: measurements round-trip through JSON
  by ``repr`` (Python's float round-trip guarantee), so a resumed sweep
  re-assembles byte-identical artifacts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Tuple, Union

import repro.obs as obs
from repro._version import __version__
from repro.errors import CheckpointError
from repro.experiments.runner import RepetitionMeasurement
from repro.obs.clock import wall_clock_iso
from repro.perf.executor import RepetitionOutcome
from repro.storage import (
    RecordError,
    append_record,
    open_append,
    read_records,
    truncate_torn_tail,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "measurement_to_dict",
    "measurement_from_dict",
    "CheckpointState",
    "CheckpointWriter",
    "load_checkpoint",
    "inspect_checkpoint",
    "verify_checkpoint",
]

CHECKPOINT_SCHEMA = "checkpoint/v1"


def measurement_to_dict(measurement: RepetitionMeasurement) -> Dict:
    """A JSON round-trippable record of one repetition measurement."""
    return dataclasses.asdict(measurement)


def measurement_from_dict(record: Dict) -> RepetitionMeasurement:
    """Rebuild a :class:`RepetitionMeasurement` from its JSON record."""
    try:
        return RepetitionMeasurement(
            repetition=int(record["repetition"]),
            addc_delay_ms=(
                None
                if record["addc_delay_ms"] is None
                else float(record["addc_delay_ms"])
            ),
            coolest_delay_ms=(
                None
                if record["coolest_delay_ms"] is None
                else float(record["coolest_delay_ms"])
            ),
            rng_positions=record.get("rng_positions") or {},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad measurement record: {exc}") from exc


@dataclass
class CheckpointState:
    """Everything a validating load recovers from one journal."""

    path: Path
    header: Dict
    #: Journalled outcomes by ``(point, repetition)``, metric snapshots
    #: included, so a resume replays them instead of re-running.
    entries: Dict[Tuple[int, int], RepetitionOutcome] = field(default_factory=dict)
    #: Quarantine records from previous runs (audit only: resuming always
    #: re-attempts items that have no measurement, quarantined or not).
    failures: List[Dict] = field(default_factory=list)
    torn_tail: bool = False
    #: Byte offset of the end of the last valid record.
    valid_bytes: int = 0

    @property
    def config_hash(self) -> Optional[str]:
        return self.header.get("config_hash")


def load_checkpoint(path: Union[str, Path]) -> CheckpointState:
    """Read and validate a ``checkpoint/v1`` journal, read-only.

    A torn final line (the one write a SIGKILL can interrupt; see
    :func:`repro.storage.read_records`) is dropped and flagged in
    ``torn_tail``; :meth:`CheckpointWriter.append_to` truncates it from
    the file before the next append.  Any malformed line *before* the
    tail means real corruption and raises
    :class:`~repro.errors.CheckpointError` naming the path and line.
    """
    target = Path(path)
    try:
        records, valid_bytes, torn = read_records(target)
    except RecordError as exc:
        raise CheckpointError(
            f"checkpoint journal {target} is corrupt at {exc}"
        ) from exc
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint journal {target}: {exc}"
        ) from exc
    if not torn and not valid_bytes:
        raise CheckpointError(f"checkpoint journal {target} is empty")

    state = CheckpointState(
        path=target, header={}, torn_tail=torn, valid_bytes=valid_bytes
    )
    if torn:
        obs.counter_add("harness.checkpoint.torn_tail")
    if not records:
        raise CheckpointError(
            f"checkpoint journal {target} has no valid header line"
        )
    header = records[0]
    if header.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{target} is not a checkpoint journal "
            f"(expected schema {CHECKPOINT_SCHEMA!r}, got "
            f"{header.get('schema')!r})"
        )
    state.header = header
    for number, record in enumerate(records[1:], start=2):
        _absorb_record(state, target, number, record)
    return state


def _absorb_record(
    state: CheckpointState, path: Path, number: int, record: Dict
) -> None:
    kind = record.get("kind")
    if kind == "repetition":
        try:
            key = (int(record["point"]), int(record["rep"]))
            entry = RepetitionOutcome(
                point_index=key[0],
                repetition=key[1],
                measurement=measurement_from_dict(record["measurement"]),
                metrics=record.get("metrics"),
                profile=record.get("profile"),
            )
        except (KeyError, TypeError, ValueError, CheckpointError) as exc:
            raise CheckpointError(
                f"checkpoint journal {path} is corrupt at record {number}: {exc}"
            ) from exc
        # Duplicates can only carry identical payloads (measurements are
        # deterministic functions of (config, repetition)); first wins.
        state.entries.setdefault(key, entry)
    elif kind == "failure":
        failure = record.get("record")
        if not isinstance(failure, dict):
            raise CheckpointError(
                f"checkpoint journal {path} is corrupt at record {number}: "
                "failure record is not an object"
            )
        state.failures.append(failure)
    else:
        raise CheckpointError(
            f"checkpoint journal {path} is corrupt at record {number}: "
            f"unknown record kind {kind!r}"
        )


class CheckpointWriter:
    """Append-only writer for one ``checkpoint/v1`` journal.

    Every append is a single full-line write, flushed and fsynced before
    returning, so the journal never loses an acknowledged record to a
    later crash.  Use :meth:`create` for a fresh journal (writes the
    header) or :meth:`append_to` to continue one that
    :func:`load_checkpoint` validated first.
    """

    def __init__(self, path: Union[str, Path], handle: BinaryIO) -> None:
        self.path = Path(path)
        self._handle: Optional[BinaryIO] = handle
        self.records_written = 0

    # ------------------------------------------------------------------ #
    # Constructors                                                        #
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        name: str,
        config_hash: str,
        total_items: int,
    ) -> "CheckpointWriter":
        """Start a fresh journal at ``path`` (refuses to clobber one)."""
        target = Path(path)
        try:
            # open_append also fsyncs the directory: the journal's
            # *existence* is a directory entry, and a power loss must not
            # undo the creation of a journal whose records were acknowledged.
            handle = open_append(target)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint journal {target}: {exc}"
            ) from exc
        if handle.tell():  # append mode starts at the end of a non-empty file
            handle.close()
            raise CheckpointError(
                f"checkpoint journal {target} already exists; resume it or "
                "delete it before starting a fresh sweep"
            )
        writer = cls(target, handle)
        header = {
            "schema": CHECKPOINT_SCHEMA,
            "name": name,
            "config_hash": config_hash,
            "total_items": int(total_items),
            "package_version": __version__,
            "created_utc": wall_clock_iso(),
        }
        writer._append(header)
        return writer

    @classmethod
    def append_to(cls, state: CheckpointState) -> "CheckpointWriter":
        """Continue the journal a :func:`load_checkpoint` call validated.

        A torn tail the load found is truncated here, so the first new
        record starts on a clean line boundary.
        """
        try:
            if state.torn_tail:
                truncate_torn_tail(state.path, state.valid_bytes)
            handle = open_append(state.path)
        except OSError as exc:
            raise CheckpointError(
                f"cannot reopen checkpoint journal {state.path}: {exc}"
            ) from exc
        return cls(state.path, handle)

    # ------------------------------------------------------------------ #
    # Appends                                                             #
    # ------------------------------------------------------------------ #

    def _append(self, record: Dict) -> None:
        if self._handle is None:
            raise CheckpointError(
                f"checkpoint journal {self.path} is closed"
            )
        try:
            append_record(self._handle, record)
        except OSError as exc:
            raise CheckpointError(
                f"cannot append to checkpoint journal {self.path}: {exc}"
            ) from exc
        self.records_written += 1

    def append_measurement(
        self,
        point_index: int,
        repetition: int,
        measurement: RepetitionMeasurement,
        metrics: Optional[Dict] = None,
        profile: Optional[Dict] = None,
    ) -> None:
        """Journal one completed ``(point, repetition)`` durably."""
        self._append(
            {
                "kind": "repetition",
                "point": int(point_index),
                "rep": int(repetition),
                "measurement": measurement_to_dict(measurement),
                "metrics": metrics,
                "profile": profile,
            }
        )
        obs.counter_add("harness.checkpoint.records")

    def append_failure(self, record: Dict) -> None:
        """Journal one quarantined-item failure record (audit trail)."""
        self._append({"kind": "failure", "record": record})

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close the journal (idempotent); every append was already fsynced."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def inspect_checkpoint(path: Union[str, Path]) -> Dict:
    """A JSON-ready summary of one journal (``checkpoint inspect``)."""
    state = load_checkpoint(path)
    per_point: Dict[int, int] = {}
    for point_index, _ in sorted(state.entries):
        per_point[point_index] = per_point.get(point_index, 0) + 1
    return {
        "path": str(state.path),
        "schema": state.header.get("schema"),
        "name": state.header.get("name"),
        "config_hash": state.header.get("config_hash"),
        "created_utc": state.header.get("created_utc"),
        "package_version": state.header.get("package_version"),
        "total_items": state.header.get("total_items"),
        "completed_items": len(state.entries),
        "records_per_point": {
            str(point): count for point, count in sorted(per_point.items())
        },
        "failures": list(state.failures),
        "torn_tail": state.torn_tail,
    }


def verify_checkpoint(
    path: Union[str, Path], config_hash: Optional[str] = None
) -> List[str]:
    """Validate a journal read-only; returns human-readable problems.

    Checks the schema header and every record's shape (both through
    :func:`load_checkpoint`), the item count against the header's
    ``total_items``, and (when given) the expected ``config_hash``.  A
    duplicate ``(point, repetition)`` key is not reported: a sweep only
    journals items its journal lacks, and the loader keeps the first.  A
    torn tail is reported but — unlike mid-file corruption — is not an
    error: resume repairs it.
    """
    problems: List[str] = []
    try:
        state = load_checkpoint(path)
    except CheckpointError as exc:
        return [str(exc)]
    if state.torn_tail:
        problems.append(
            "torn tail: final line is incomplete (resume will truncate it)"
        )
    total = state.header.get("total_items")
    if isinstance(total, int) and len(state.entries) > total:
        problems.append(
            f"journal holds {len(state.entries)} completed items but the "
            f"header promises only {total}"
        )
    if config_hash is not None and state.config_hash != config_hash:
        problems.append(
            f"config_hash mismatch: journal has {state.config_hash!r}, "
            f"expected {config_hash!r}"
        )
    for (point, rep), entry in sorted(state.entries.items()):
        if entry.measurement.repetition != rep:
            problems.append(
                f"record ({point}, {rep}) carries a measurement for "
                f"repetition {entry.measurement.repetition}"
            )
    return problems
