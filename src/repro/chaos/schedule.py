"""Kill/hang-at-point injection for supervised workers.

The harness test-suite historically proved crash recovery with ad-hoc
subprocess ``SIGKILL`` choreography.  This module generalizes that into a
reusable, picklable wrapper: :class:`ChaosWorker` wraps any top-level
executor and, per a :class:`ChaosSchedule`, makes the **first attempt**
of selected items die abruptly (``os._exit`` — indistinguishable from an
OOM kill, so the supervisor sees a ``BrokenProcessPool``, runs its
isolation probe, and rebuilds the pool in place) or hang past the retry
policy's deadline (``WorkerTimeoutError`` path).  Retries then succeed,
so a chaos-scheduled run must converge to results identical to a clean
run — the ``repair-preserves-results`` evidence the gate checks.

First-attempt detection cannot live in process memory (the crash *is* the
point), so it is a marker file per item in ``state_dir``: absent means
"this attempt is the first — misbehave", present means "already crashed
once — behave".  The schedule itself is drawn from a named chaos stream
(:meth:`ChaosSchedule.from_stream`); an empty schedule wraps the executor
with zero behavioural difference.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Tuple

from repro.errors import ChaosError
from repro.obs.clock import sleep_s
from repro.rng import StreamFactory

__all__ = ["ChaosSchedule", "ChaosWorker", "item_key"]


def item_key(item) -> int:
    """A stable integer identity for one work item.

    Items from the journalled sweeps carry a ``repetition`` attribute —
    the natural key.  Anything else falls back to a BLAKE2b digest of its
    ``repr``, which is deterministic for frozen dataclasses.
    """
    repetition = getattr(item, "repetition", None)
    if isinstance(repetition, int):
        return repetition
    digest = hashlib.blake2b(repr(item).encode("utf-8"), digest_size=4)
    return int.from_bytes(digest.digest(), "big")


@dataclass(frozen=True)
class ChaosSchedule:
    """Which item keys misbehave on their first attempt, and how.

    ``kill_first_attempt`` items call ``os._exit(exit_code)`` — the
    worker process vanishes mid-item.  ``hang_first_attempt`` items sleep
    ``hang_s`` seconds (longer than the retry policy's ``timeout_s``)
    before proceeding; the supervisor times the attempt out and the pool
    rebuild terminates the sleeper.
    """

    kill_first_attempt: Tuple[int, ...] = ()
    hang_first_attempt: Tuple[int, ...] = ()
    hang_s: float = 15.0
    exit_code: int = 23

    def __post_init__(self) -> None:
        overlap = set(self.kill_first_attempt) & set(self.hang_first_attempt)
        if overlap:
            raise ChaosError(
                f"items {sorted(overlap)} are scheduled to both kill and hang"
            )
        if self.hang_s <= 0:
            raise ChaosError(f"hang_s must be positive, got {self.hang_s}")

    @property
    def empty(self) -> bool:
        return not self.kill_first_attempt and not self.hang_first_attempt

    @classmethod
    def from_stream(
        cls,
        streams: StreamFactory,
        item_keys: Tuple[int, ...],
        kill_fraction: float = 0.0,
        hang_fraction: float = 0.0,
        stream_name: str = "chaos-workers",
        hang_s: float = 15.0,
    ) -> "ChaosSchedule":
        """Draw victims from a named chaos stream (empty at fraction 0)."""
        if kill_fraction < 0 or hang_fraction < 0:
            raise ChaosError("chaos fractions must be >= 0")
        if kill_fraction + hang_fraction > 1:
            raise ChaosError(
                "kill_fraction + hang_fraction must not exceed 1, got "
                f"{kill_fraction} + {hang_fraction}"
            )
        kills = int(round(kill_fraction * len(item_keys)))
        hangs = int(round(hang_fraction * len(item_keys)))
        if not kills and not hangs:
            return cls(hang_s=hang_s)
        rng = streams.stream(stream_name)
        victims = [
            item_keys[int(index)]
            for index in rng.choice(
                len(item_keys), size=kills + hangs, replace=False
            )
        ]
        return cls(
            kill_first_attempt=tuple(sorted(victims[:kills])),
            hang_first_attempt=tuple(sorted(victims[kills:])),
            hang_s=hang_s,
        )


@dataclass(frozen=True)
class ChaosWorker:
    """A picklable executor wrapper applying one :class:`ChaosSchedule`.

    ``executor`` must be a top-level callable: spawn workers pickle it by
    reference.  ``state_dir`` holds the first-attempt markers and must
    exist on a filesystem all worker processes share.
    """

    executor: Callable
    schedule: ChaosSchedule
    state_dir: str
    #: Marker filename prefix, so several chaos runs can share a dir.
    label: str = "chaos"

    def _marker(self, key: int) -> Path:
        return Path(self.state_dir) / f"{self.label}-item-{key}.attempted"

    def _first_attempt(self, key: int) -> bool:
        marker = self._marker(key)
        try:
            with open(marker, "x", encoding="utf-8") as handle:
                handle.write("attempted\n")
            return True
        except FileExistsError:
            return False

    def __call__(self, item):
        key = item_key(item)
        if key in self.schedule.kill_first_attempt and self._first_attempt(key):
            if multiprocessing.parent_process() is None:
                # The supervisor runs inline for workers=1 / single-item
                # batches; exiting here would take the whole run with it.
                raise ChaosError(
                    "kill scheduled for an item executing in the main "
                    "process; chaos kill schedules need workers >= 2 and "
                    "more than one item"
                )
            # Vanish the way an OOM kill would: no exception, no cleanup.
            os._exit(self.schedule.exit_code)
        if key in self.schedule.hang_first_attempt and self._first_attempt(key):
            sleep_s(self.schedule.hang_s)
        return self.executor(item)
