"""``repro.perf`` — the repetition work item, warm pools and the scalar
reference index.

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
  check the vectorized CSR index against it exactly.

Wall-clock regressions are gated end to end by ``benchmarks/e2e_gate.py``
over the e2ebench ``fig6c-sweep`` workload (docs/PERFORMANCE.md).
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
