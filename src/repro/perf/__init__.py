"""``repro.perf`` — the repetition work item, warm pools and benchmarks.

All pinned bit-identical to the serial/scalar code paths:

* :mod:`repro.perf.executor` — the picklable (sweep point × repetition)
  work item and its top-level worker entry point.  Workers re-derive
  their named RNG streams from the ``(config, repetition)`` pair, so
  gathered results are byte-identical to serial order for any worker
  count and completion order.
* :mod:`repro.perf.pool` — the warm ``spawn`` pool: processes spawn once
  per sweep (or daemon) lifetime and are rebuilt in place after a crash.
* :mod:`repro.perf.reference` — the original scalar (dict-of-buckets)
  ``GridIndex`` kept as an executable specification; the property tests
  and ``addc-repro perf bench`` check the vectorized CSR index against
  it exactly.

``addc-repro perf bench`` (:mod:`repro.perf.bench`) measures serial vs
warm-pool sweeps, scalar vs vectorized, and fast-forward on vs off on
the same machine in the same run, via the :mod:`repro.obs` clock
facade, and writes ``BENCH_perf.json``.
"""

from repro.perf.executor import (
    RepetitionOutcome,
    SweepWorkItem,
    execute_work_item,
)
from repro.perf.pool import WarmWorkerPool
from repro.perf.reference import ScalarGridIndex

__all__ = [
    "RepetitionOutcome",
    "SweepWorkItem",
    "execute_work_item",
    "WarmWorkerPool",
    "ScalarGridIndex",
]
