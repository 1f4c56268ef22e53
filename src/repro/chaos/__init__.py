"""Injectable infrastructure chaos and the resilience contracts over it.

Three fault layers, each scheduled up front as plain data and consuming
no RNG stream (so an empty schedule leaves runs bit-identical):

* :mod:`repro.chaos.storage` — durable-write faults (``ENOSPC``,
  ``EIO``, torn writes) through the :func:`repro.storage.set_chaos_hook`
  seam, plus :func:`tear_ndjson_tail` for crash-torn journals;
* :mod:`repro.chaos.schedule` — worker kill/hang-at-point injection for
  the supervised harness;
* :mod:`repro.chaos.proxy` — an AF_UNIX fault proxy for the
  ``service/v1`` protocol (dropped, fragmented, stalled responses).

On top: :mod:`repro.chaos.contracts` declares the resilience invariants,
:mod:`repro.chaos.scenarios` runs the fixed evidence-producing grid, and
:mod:`repro.chaos.gate` ties both into the ``addc-repro chaos gate``
CLI with a ``BENCH_resilience.json`` ratchet.
"""

from repro.chaos.contracts import (
    CONTRACTS,
    ContractCheck,
    ResilienceContract,
    evaluate_contracts,
    render_contracts,
)
from repro.chaos.gate import (
    GateReport,
    apply_synthetic_violation,
    diff_against_baseline,
    gate_manifest,
    render_gate,
    run_gate,
    write_gate_baseline,
)
from repro.chaos.proxy import (
    PROXY_FAULT_KINDS,
    ChaosSocketProxy,
    ConnectionFault,
    ProxySchedule,
)
from repro.chaos.schedule import ChaosSchedule, ChaosWorker, item_key
from repro.chaos.scenarios import GATE_SEED, run_scenario_grid
from repro.chaos.storage import (
    FAULT_KINDS,
    StorageChaos,
    StorageFault,
    StorageFaultPlan,
    tear_ndjson_tail,
)

__all__ = [
    "CONTRACTS",
    "ContractCheck",
    "ResilienceContract",
    "evaluate_contracts",
    "render_contracts",
    "GateReport",
    "apply_synthetic_violation",
    "run_gate",
    "gate_manifest",
    "diff_against_baseline",
    "write_gate_baseline",
    "render_gate",
    "GATE_SEED",
    "run_scenario_grid",
    "PROXY_FAULT_KINDS",
    "ConnectionFault",
    "ProxySchedule",
    "ChaosSocketProxy",
    "ChaosSchedule",
    "ChaosWorker",
    "item_key",
    "FAULT_KINDS",
    "StorageFault",
    "StorageFaultPlan",
    "StorageChaos",
    "tear_ndjson_tail",
]
