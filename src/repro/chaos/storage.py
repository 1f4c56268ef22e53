"""Deterministic fault injection for the durable-write layer.

:mod:`repro.storage` exposes one chaos hook
(:func:`repro.storage.set_chaos_hook`) observing every durable write
before it happens: whole-file writes, directory fsyncs, and record
appends and tail truncations.  This module turns that hook into a
*scheduled* fault plan over whole-file writes: the k-th intercepted
:func:`~repro.storage.atomic_write_text` fails with ``ENOSPC``, ``EIO``,
or a torn write — the write indices and fault kinds written out up front
as plain data (a :class:`StorageFaultPlan`), so injection consumes no RNG
stream.  An empty plan therefore leaves every run bit-identical to an
uninstrumented one, which is itself a gated contract
(``empty-schedule-purity`` in :mod:`repro.chaos.contracts`).

A ``torn`` fault simulates exactly the failure :func:`atomic_write_text`
exists to prevent: a prefix of the payload lands in the *target* file (as
a killed non-atomic writer would leave it) and the write raises ``EIO``.
Downstream loaders must refuse the debris loudly — that is the
``cache-never-serves-stale`` contract, and reprolint rule ROB003 bans the
non-atomic write pattern statically for the same reason.

:func:`tear_ndjson_tail` is the append-side counterpart: it truncates an
NDJSON journal mid-way through its final line, reproducing the one write
a ``SIGKILL`` can tear, so the torn-tail recovery path
(:func:`repro.harness.load_checkpoint`) is testable without actually
killing a process.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import repro.obs as obs
import repro.storage as storage
from repro.errors import ChaosError

__all__ = [
    "FAULT_KINDS",
    "StorageFault",
    "StorageFaultPlan",
    "StorageChaos",
    "tear_ndjson_tail",
]

#: The fault menu.
FAULT_KINDS = ("enospc", "eio", "torn")

_ERRNO = {"enospc": errno.ENOSPC, "eio": errno.EIO, "torn": errno.EIO}


@dataclass(frozen=True)
class StorageFault:
    """One scheduled write fault.

    ``write_index`` counts intercepted ``atomic_write_text`` calls (after
    the plan's filename filter), 0-based; ``payload_fraction`` is the
    share of the payload a ``torn`` fault leaves in the target file.
    """

    write_index: int
    kind: str
    payload_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ChaosError(
                f"unknown storage fault kind {self.kind!r} "
                f"(expected one of {FAULT_KINDS})"
            )
        if self.write_index < 0:
            raise ChaosError(
                f"write_index must be >= 0, got {self.write_index}"
            )
        if not 0.0 <= self.payload_fraction < 1.0:
            raise ChaosError(
                "payload_fraction must be in [0, 1), got "
                f"{self.payload_fraction}"
            )


@dataclass(frozen=True)
class StorageFaultPlan:
    """A replayable schedule of :class:`StorageFault` entries.

    ``match`` is a substring filter on the target filename: writes whose
    name does not contain it are forwarded untouched and do not advance
    the write counter, so a plan can aim at (say) artifact writes without
    being perturbed by unrelated manifests landing in between.
    """

    faults: Tuple[StorageFault, ...] = ()
    match: str = ""

    def __post_init__(self) -> None:
        indices = [fault.write_index for fault in self.faults]
        if len(set(indices)) != len(indices):
            raise ChaosError(
                f"storage fault plan schedules index {indices} more than once"
            )

    def fault_at(self, write_index: int) -> Optional[StorageFault]:
        for fault in self.faults:
            if fault.write_index == write_index:
                return fault
        return None


class StorageChaos:
    """Scoped installer running one :class:`StorageFaultPlan`.

    ``with StorageChaos(plan) as chaos:`` installs the hook, counts
    intercepted writes, injects the scheduled faults, and restores the
    previous hook on exit.  ``chaos.injected`` records every injection as
    ``(write_index, kind, path)`` so scenarios can assert the plan
    actually bit.
    """

    def __init__(self, plan: StorageFaultPlan) -> None:
        self.plan = plan
        self.writes_seen = 0
        self.injected: List[Tuple[int, str, str]] = []
        self._previous = None
        self._installed = False

    def __enter__(self) -> "StorageChaos":
        if self._installed:
            raise ChaosError("StorageChaos is not re-entrant")
        self._previous = storage.set_chaos_hook(self._hook)
        self._installed = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        storage.set_chaos_hook(self._previous)
        self._installed = False
        return False

    def _hook(self, op: str, path: Path, payload: Optional[str]) -> None:
        # Only whole-file writes are scheduled: appends and directory
        # fsyncs pass untouched and leave the write indices where they are.
        if op != "atomic_write_text":
            return
        if self.plan.match and self.plan.match not in path.name:
            return
        index = self.writes_seen
        self.writes_seen += 1
        fault = self.plan.fault_at(index)
        if fault is None:
            return
        self.injected.append((index, fault.kind, str(path)))
        obs.counter_add("chaos.storage.injected")
        if fault.kind == "torn" and payload is not None:
            # A killed non-atomic writer: a payload prefix reaches the
            # target, then the process "dies".  Loaders must refuse it.
            cut = int(len(payload) * fault.payload_fraction)
            path.write_text(payload[:cut], encoding="utf-8")
        raise OSError(
            _ERRNO[fault.kind],
            f"chaos: injected {fault.kind} at durable write #{index} "
            f"({path})",
        )


def tear_ndjson_tail(
    path: Union[str, Path], keep_fraction: float = 0.5
) -> int:
    """Truncate an NDJSON file mid-way through its final record line.

    Reproduces a ``SIGKILL`` landing inside the one append a journal can
    lose: the final non-empty line keeps only ``keep_fraction`` of its
    bytes and loses its newline.  Returns the number of bytes removed.
    Raises :class:`ChaosError` when the file has no line to tear.
    """
    target = Path(path)
    if not 0.0 <= keep_fraction < 1.0:
        raise ChaosError(
            f"keep_fraction must be in [0, 1), got {keep_fraction}"
        )
    raw = target.read_bytes()
    body = raw[:-1] if raw.endswith(b"\n") else raw
    if not body:
        raise ChaosError(f"{target} has no record line to tear")
    cut = body.rfind(b"\n") + 1  # start of the final line (0 if only line)
    line = body[cut:]
    keep = cut + max(int(len(line) * keep_fraction), 1 if cut else 0)
    keep = min(keep, len(raw) - 1)  # always remove at least the newline
    with open(target, "r+b") as handle:
        handle.truncate(keep)
    return len(raw) - keep
