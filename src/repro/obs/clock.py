"""The package's single clock access point.

Every wall-clock or monotonic-clock read in the repository goes through
this module: reprolint rule OBS001 bans direct ``time.time()`` /
``time.perf_counter()`` calls everywhere outside ``repro/obs``, so timing
semantics (and their determinism implications) are auditable in one place.

None of these functions ever touches a random stream — instrumentation
must leave replays bit-identical (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import time as _time
from datetime import datetime, timezone

__all__ = ["monotonic_s", "sleep_s", "wall_clock_iso"]


#: Monotonic high-resolution timestamp in seconds (span timing).  Bound
#: to ``time.perf_counter`` itself rather than wrapped, so a read costs no
#: extra Python frame: the slot loop makes several per executed slot.
monotonic_s = _time.perf_counter


def sleep_s(seconds: float) -> None:
    """Block the calling thread for ``seconds`` (retry backoff waits).

    Routed through the clock facade for the same reason as the reads:
    every place the harness can stall is auditable here, and tests inject
    a fake sleep alongside a fake clock to run backoff schedules
    instantly.
    """
    if seconds > 0:
        _time.sleep(seconds)


def wall_clock_iso() -> str:
    """The current UTC wall-clock time as an ISO-8601 string (provenance)."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
