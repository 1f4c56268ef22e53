"""Repetition progress heartbeats (rate + ETA on stderr).

Long sweeps were previously silent for minutes; a :class:`Heartbeat`
passed as ``progress`` to a sweep (the plain drivers,
:func:`repro.harness.run_checkpointed_sweep` or
:func:`repro.service.jobs.run_job`) ticks as each repetition completes
and reports throughput and the estimated time remaining, throttled so
the output stays readable.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from repro.obs.clock import monotonic_s

__all__ = ["Heartbeat"]


class Heartbeat:
    """Progress reporter for a known amount of work.

    Writes single lines like::

        [fig6 n=40] 12/50 (24.0%) 1.7/s ETA 0:22

    to ``stream`` (default ``sys.stderr``).  Lines are throttled to one per
    ``min_interval_s`` — except the first and last tick, which always
    print.  Purely an output device: never touches RNG streams, never
    changes behaviour of the work it watches.
    """

    def __init__(
        self,
        total: int,
        label: str = "progress",
        stream: Optional[TextIO] = None,
        min_interval_s: float = 1.0,
    ) -> None:
        if total <= 0:
            raise ValueError(f"Heartbeat total must be positive, got {total}")
        self.total = int(total)
        self.label = label
        self.done = 0
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval_s = float(min_interval_s)
        self._start = monotonic_s()
        self._last_emit: Optional[float] = None

    def tick(self, n: int = 1) -> None:
        """Mark ``n`` more units done; maybe emit a progress line."""
        self.done += n
        now = monotonic_s()
        finished = self.done >= self.total
        throttled = (
            self._last_emit is not None
            and (now - self._last_emit) < self._min_interval_s
        )
        if throttled and not finished:
            return
        self._last_emit = now
        self._stream.write(self._format_line(now) + "\n")
        self._stream.flush()

    def _format_line(self, now: float) -> str:
        elapsed = now - self._start
        rate = self.done / elapsed if elapsed > 0 else 0.0
        pct = 100.0 * self.done / self.total
        if rate > 0 and self.done < self.total:
            remaining = (self.total - self.done) / rate
            eta = f"{int(remaining) // 60}:{int(remaining) % 60:02d}"
        else:
            eta = "0:00"
        return (
            f"[{self.label}] {self.done}/{self.total} ({pct:.1f}%) "
            f"{rate:.1f}/s ETA {eta}"
        )
