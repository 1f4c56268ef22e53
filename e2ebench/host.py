"""Host-speed reference kernel, host-normalized timing and small statistics.

On the machine these figures come from (a shared 2-vCPU Intel Xeon VM
with no hardware performance counters) speed drifts by tens of percent
within a minute, so raw seconds from two runs of the same code disagree.  Every end-to-end timing is therefore
also reported in *host-normalized seconds*::

    normalized = raw_s * REF_NOMINAL_S / ref_s

where ``ref_s`` is the duration of a fixed reference kernel measured next
to the timed work.  The kernel imports nothing from ``repro``: a change
to the program can never move its own yardstick.

Each op is normalized by the mean of the reference samples taken just
before and just after it (``Op.ref_s``).  There that tracks drift
far better than one run-wide median: over ten runs of 100 bench-scale
repetitions the IQR of the run totals was 21% raw, 10% with a run-wide
median reference and 4-5% with per-op references.  Work outside any op
(job set-up, artifact writes) uses the run median, ``HostClock.ref_s``.
"""

from __future__ import annotations

import heapq
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

#: What the reference kernel takes on the host the figures are quoted
#: for; normalized seconds are "seconds on that host".
REF_NOMINAL_S = 0.010

_VEC = np.arange(512, dtype=np.float64)


def reference_kernel() -> float:
    """A fixed ~10 ms mix shaped like the engine's inner loop.

    A pure-Python loop doing dict counting and bounded-heap pushes/pops
    (the engine's backoff and arrival bookkeeping), then a run of small
    numpy ops on a 512-element vector (its per-slot array work).  The
    return value is consumed by the caller so nothing is optimised away.
    """
    heap: list = []
    table: dict = {}
    x = 12345
    for i in range(8000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (x, i))
        if len(heap) > 256:
            heapq.heappop(heap)
    acc = float(len(table))
    for i in range(160):
        shifted = _VEC * 1.0001 + i
        acc += float(np.minimum(shifted, 300.0).sum())
        acc += int(np.argmax(shifted > 200.0))
    return acc


class HostClock:
    """Takes and keeps the run's reference samples."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Seconds spent inside the kernel (subtracted from any timed
        #: region that had to take samples inside it).
        self.spent_s = 0.0

    def sample(self, count: int = 1) -> float:
        """Run the kernel ``count`` times; returns the median duration."""
        taken = []
        for _ in range(count):
            start = time.perf_counter()
            reference_kernel()
            taken.append(time.perf_counter() - start)
        self.samples.extend(taken)
        self.spent_s += sum(taken)
        return statistics.median(taken)

    def ref_s(self) -> float:
        """The run's reference: the median of every sample taken."""
        return statistics.median(self.samples)

    def spread(self) -> float:
        """IQR of the samples as a share of their median."""
        return iqr_share(self.samples)

    def normalize(self, raw_s: float) -> float:
        """``raw_s`` scaled by the run median (for time outside any op)."""
        return raw_s * REF_NOMINAL_S / self.ref_s()


@dataclass
class Op:
    """One timed operation of the closed loop."""

    kind: str
    started: float
    raw_s: float
    ref_before: float
    ref_after: Optional[float] = None
    #: Anything the workload wants to keep about the op's outcome.
    info: dict = field(default_factory=dict)

    @property
    def ref_s(self) -> float:
        if self.ref_after is None:
            return self.ref_before
        return 0.5 * (self.ref_before + self.ref_after)

    @property
    def norm_s(self) -> float:
        return self.raw_s * REF_NOMINAL_S / self.ref_s


class OpTimer:
    """A closed loop of ops, each bracketed by reference samples.

    A tracer, if given, tags what runs inside an op with the op's index;
    a timed one also records each op as a ``bench.op`` span and each
    reference sample as a ``host.ref`` span.
    """

    def __init__(self, clock: HostClock, gap_samples: int = 1, tracer=None) -> None:
        self.clock = clock
        self.gap_samples = gap_samples
        self.tracer = tracer
        self.ops: List[Op] = []

    def _timed(self) -> bool:
        return self.tracer is not None and self.tracer.timed

    def _sample(self) -> float:
        if not self._timed():
            return self.clock.sample(self.gap_samples)
        with self.tracer.span("host.ref"):
            return self.clock.sample(self.gap_samples)

    def measure(self, kind: str, fn: Callable, *args, **kwargs):
        """Sample the host, then time ``fn(*args, **kwargs)`` as one op."""
        ref = self._sample()
        if self.ops and self.ops[-1].ref_after is None:
            self.ops[-1].ref_after = ref
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        start = time.perf_counter()
        try:
            if self._timed():
                with self.tracer.span("bench.op"):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.op = None
        self.ops.append(Op(kind, start, raw, ref))
        return result

    def close(self) -> None:
        """Take the sample that brackets the last op from after."""
        if self.ops and self.ops[-1].ref_after is None:
            self.ops[-1].ref_after = self._sample()

    def raw_s(self, kind: Optional[str] = None) -> float:
        return sum(op.raw_s for op in self.ops if kind in (None, op.kind))

    def norm_s(self, kind: Optional[str] = None) -> float:
        return sum(op.norm_s for op in self.ops if kind in (None, op.kind))


# ---- statistics --------------------------------------------------------- #


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` unless >= 10 samples lie beyond.

    Reporting a tail only where ten samples exceed it keeps one slow op
    from posing as a percentile.
    """
    if len(values) * (100 - q) < 1000:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), q))
