"""Typed resilience contracts over chaos-scenario evidence.

A :class:`ResilienceContract` is a declarative invariant about how the
stack behaves under injected infrastructure faults, evaluated against the
evidence dict the scenario grid (:mod:`repro.chaos.scenarios`) produces.
Contracts are to resilience what reprolint rules are to source hygiene:
each has a stable ``id`` usable in reports, a human rationale, and an
``evaluate`` method yielding :class:`ContractCheck` verdicts — and the
``addc-repro chaos gate`` CLI fails (exit 1) when any check fails, the
same way it fails on a ratcheted figure regression.

The registry :data:`CONTRACTS` is the closed vocabulary the gate runs:

* ``monotone-degradation`` — delivery ratio degrades gracefully (never
  cliff-drops beyond noise) as fault intensity rises; fault-free runs
  deliver everything.
* ``delivery-books-balance`` — every packet is delivered or attributably
  lost; with drop-queue outages, orphans account for all losses.
* ``bounded-repair`` — observed repair latencies stay under the scenario
  bound, and supervised retries stay within the attempt budget.
* ``no-acknowledged-job-lost`` — every job the daemon acknowledged
  before a ``SIGKILL`` completes after restart and is then served from
  the cache; fragmented, dropped and stalled responses reach the client
  whole or as a typed error, never as a hang.
* ``resume-identity`` — a torn-and-resumed run is byte-identical to an
  uninterrupted one, RNG stream positions included.
* ``cache-never-serves-stale`` — a failed artifact write is loud, and
  torn or corrupt cache state is refused, never served as a result.
* ``empty-schedule-purity`` — chaos machinery with an empty fault
  schedule is bit-identical to the plain path (results **and** RNG
  positions), so the harness itself perturbs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

__all__ = [
    "ContractCheck",
    "ResilienceContract",
    "MonotoneDegradationContract",
    "DeliveryBooksBalanceContract",
    "BoundedRepairContract",
    "NoAcknowledgedJobLostContract",
    "ResumeIdentityContract",
    "CacheNeverServesStaleContract",
    "EmptySchedulePurityContract",
    "CONTRACTS",
    "evaluate_contracts",
    "render_contracts",
]


@dataclass(frozen=True)
class ContractCheck:
    """One verdict: a contract applied to one piece of scenario evidence."""

    contract: str
    scenario: str
    passed: bool
    detail: str

    def to_dict(self) -> Dict:
        return {
            "contract": self.contract,
            "scenario": self.scenario,
            "passed": self.passed,
            "detail": self.detail,
        }


class ResilienceContract:
    """Base class: subclass, set ``id``/``name``/``description``."""

    id: str = ""
    name: str = ""
    description: str = ""

    def evaluate(self, evidence: Dict) -> Iterator[ContractCheck]:
        raise NotImplementedError

    def check(
        self, scenario: str, passed: bool, detail: str
    ) -> ContractCheck:
        return ContractCheck(
            contract=self.id, scenario=scenario, passed=passed, detail=detail
        )

    def missing(self, scenario: str, what: str) -> ContractCheck:
        """Absent evidence is a failure: a gate must never silently skip."""
        return self.check(
            scenario, False, f"no evidence: scenario produced no {what}"
        )

    def flags(
        self, scenario: str, evidence: Dict, table: Tuple[Tuple[str, str, str], ...]
    ) -> Iterator[ContractCheck]:
        """One check per ``(key, ok_detail, bad_detail)`` row: passes when
        ``evidence[key]`` is true (an absent key fails)."""
        for key, ok_detail, bad_detail in table:
            ok = bool(evidence.get(key))
            yield self.check(scenario, ok, ok_detail if ok else bad_detail)


class MonotoneDegradationContract(ResilienceContract):
    id = "monotone-degradation"
    name = "graceful delivery degradation"
    description = (
        "delivery ratio is 1.0 fault-free and degrades monotonically "
        "(within the scenario's noise allowance) as intensity rises"
    )

    def evaluate(self, evidence: Dict) -> Iterator[ContractCheck]:
        degradation = evidence.get("degradation") or {}
        rows = degradation.get("rows") or []
        if not rows:
            yield self.missing("degradation", "intensity rows")
            return
        noise = float(degradation.get("ratio_noise", 0.0))
        first = rows[0]
        if float(first.get("intensity", -1)) == 0.0:
            clean = (
                float(first["delivery_ratio"]) == 1.0
                and int(first["fault_events"]) == 0
                and float(first["availability"]) == 1.0
            )
            yield self.check(
                "degradation",
                clean,
                "fault-free run delivers everything"
                if clean
                else (
                    "fault-free run already degraded: ratio "
                    f"{first['delivery_ratio']}, {first['fault_events']} "
                    "fault events, availability "
                    f"{first['availability']}"
                ),
            )
        for previous, current in zip(rows, rows[1:]):
            ok = float(current["delivery_ratio"]) <= (
                float(previous["delivery_ratio"]) + noise
            )
            yield self.check(
                "degradation",
                ok,
                f"intensity {previous['intensity']}->{current['intensity']}: "
                f"ratio {previous['delivery_ratio']:.3f}->"
                f"{current['delivery_ratio']:.3f}"
                + ("" if ok else f" rose beyond noise {noise}"),
            )
        heaviest = rows[-1]
        if float(heaviest.get("intensity", 0)) > 0:
            bites = int(heaviest["fault_events"]) > 0
            yield self.check(
                "degradation",
                bites,
                "heaviest scenario injected faults"
                if bites
                else "heaviest scenario injected no faults (vacuous grid)",
            )


class DeliveryBooksBalanceContract(ResilienceContract):
    id = "delivery-books-balance"
    name = "every packet accounted for"
    description = (
        "delivered + lost == offered at every intensity, and with "
        "drop-queue outages every loss is an attributable orphan"
    )

    def evaluate(self, evidence: Dict) -> Iterator[ContractCheck]:
        degradation = evidence.get("degradation") or {}
        rows = degradation.get("rows") or []
        if not rows:
            yield self.missing("degradation", "intensity rows")
            return
        for row in rows:
            balanced = (
                int(row["delivered"]) + int(row["packets_lost"])
                == int(row["num_packets"])
            )
            attributed = int(row["packets_orphaned"]) == int(
                row["packets_lost"]
            )
            ok = balanced and attributed
            yield self.check(
                "degradation",
                ok,
                f"intensity {row['intensity']}: "
                f"{row['delivered']}+{row['packets_lost']} of "
                f"{row['num_packets']} packets, "
                f"{row['packets_orphaned']} orphaned"
                + ("" if ok else " — books do not balance"),
            )


class BoundedRepairContract(ResilienceContract):
    id = "bounded-repair"
    name = "repair latency stays bounded"
    description = (
        "observed outage repairs finish within the scenario bound and "
        "supervised retries stay within the attempt budget"
    )

    def evaluate(self, evidence: Dict) -> Iterator[ContractCheck]:
        degradation = evidence.get("degradation") or {}
        rows = degradation.get("rows") or []
        bound = degradation.get("repair_bound_slots")
        if rows and bound is not None:
            repaired = [
                row for row in rows if row.get("max_repair_slots") is not None
            ]
            if repaired:
                worst = max(
                    float(row["max_repair_slots"]) for row in repaired
                )
                ok = worst <= float(bound)
                yield self.check(
                    "degradation",
                    ok,
                    f"worst repair {worst:.0f} slots vs bound {bound:.0f}",
                )
            else:
                yield self.check(
                    "degradation",
                    True,
                    "no outage both opened and repaired in-horizon",
                )
        worker = evidence.get("worker")
        if worker is None:
            yield self.missing("worker", "supervised-retry evidence")
            return
        ok = int(worker.get("attempts_per_item_max", 0)) <= int(
            worker.get("max_attempts", 0)
        )
        yield self.check(
            "worker",
            ok,
            f"worst item took {worker.get('attempts_per_item_max')} of "
            f"{worker.get('max_attempts')} budgeted attempts",
        )


class NoAcknowledgedJobLostContract(ResilienceContract):
    id = "no-acknowledged-job-lost"
    name = "acknowledged jobs survive daemon death"
    description = (
        "every job acknowledged (accepted and persisted) before a "
        "SIGKILL completes after the daemon restarts and is then served "
        "from the cache; a fragmented, dropped or stalled response "
        "reaches the client whole or as a typed error, never a hang"
    )

    def evaluate(self, evidence: Dict) -> Iterator[ContractCheck]:
        service = evidence.get("service")
        if service is None:
            yield self.missing("service", "daemon kill/restart evidence")
            return
        acknowledged = list(service.get("acknowledged") or [])
        completed = set(service.get("completed_after_restart") or [])
        lost = [fp for fp in acknowledged if fp not in completed]
        if not acknowledged:
            yield self.check(
                "service", False, "no job was acknowledged before the kill"
            )
        else:
            yield self.check(
                "service",
                not lost,
                f"{len(acknowledged)} acknowledged, "
                f"{len(acknowledged) - len(lost)} completed after restart"
                + ("" if not lost else f"; LOST: {[fp[:12] for fp in lost]}"),
            )
        yield from self.flags(
            "service",
            service,
            (
                (
                    "cache_hit_after_restart",
                    "the recovered job answered a resubmission from the cache",
                    "the recovered job was not served from the cache",
                ),
                (
                    "partial_frames_ok",
                    "a response fragmented into 4-byte sends reassembled whole",
                    "a fragmented response did not reassemble",
                ),
                (
                    "drop_surfaced_typed",
                    "a response dropped mid-frame raised a typed ServiceError",
                    "a dropped response was not surfaced as a typed error",
                ),
                (
                    "stall_detected_typed",
                    "a stalled stream tripped the heartbeat deadline",
                    "a stalled stream was not detected by the heartbeat deadline",
                ),
            ),
        )


class ResumeIdentityContract(ResilienceContract):
    id = "resume-identity"
    name = "resume is byte-identical"
    description = (
        "a run interrupted by a torn journal and resumed produces the "
        "same artifact bytes and RNG stream positions as an "
        "uninterrupted run"
    )

    def evaluate(self, evidence: Dict) -> Iterator[ContractCheck]:
        storage = evidence.get("storage")
        if storage is None:
            yield self.missing("storage", "resume evidence")
        else:
            yield self.check(
                "storage",
                bool(storage.get("resume_identical")),
                "resumed artifact bytes match the uninterrupted run"
                if storage.get("resume_identical")
                else "resumed artifact diverged from the uninterrupted run",
            )
            yield self.check(
                "storage",
                bool(storage.get("rng_positions_identical")),
                "resumed RNG stream positions match"
                if storage.get("rng_positions_identical")
                else "resumed RNG stream positions diverged",
            )
        worker = evidence.get("worker")
        if worker is not None:
            yield self.check(
                "worker",
                bool(worker.get("results_identical")),
                "kill/hang-repaired run matches the clean run"
                if worker.get("results_identical")
                else "repaired run diverged from the clean run",
            )
        service = evidence.get("service")
        if service is not None and "artifact_identical" in service:
            yield self.check(
                "service",
                bool(service.get("artifact_identical")),
                "daemon-recovered artifact matches the in-process reference"
                if service.get("artifact_identical")
                else "daemon-recovered artifact diverged from the reference",
            )


class CacheNeverServesStaleContract(ResilienceContract):
    id = "cache-never-serves-stale"
    name = "torn or corrupt cache state is never served"
    description = (
        "an artifact write that fails raises and leaves no partial file; "
        "torn artifacts and corrupt cache entries are refused loudly"
    )

    def evaluate(self, evidence: Dict) -> Iterator[ContractCheck]:
        storage = evidence.get("storage")
        if storage is None:
            yield self.missing("storage", "cache-integrity evidence")
            return
        yield from self.flags(
            "storage",
            storage,
            (
                (
                    "write_failures_loud",
                    "ENOSPC on an artifact write raised and left no partial "
                    "file; the retry landed byte-identically",
                    "an ENOSPC artifact write was silent, left a partial "
                    "file, or its retry diverged",
                ),
                (
                    "torn_artifact_refused",
                    "torn artifact write was refused by the loader",
                    "a torn artifact was loaded as if complete",
                ),
                (
                    "corrupt_cache_entry_refused",
                    "corrupt cache entry raised a typed error",
                    "a corrupt cache entry was served",
                ),
            ),
        )


class EmptySchedulePurityContract(ResilienceContract):
    id = "empty-schedule-purity"
    name = "empty fault schedule changes nothing"
    description = (
        "the chaos path with an empty fault schedule is bit-identical "
        "to the plain path: results and RNG stream positions"
    )

    def evaluate(self, evidence: Dict) -> Iterator[ContractCheck]:
        degradation = evidence.get("degradation") or {}
        empty = degradation.get("empty_schedule")
        if not isinstance(empty, dict):
            yield self.missing("degradation", "empty-schedule comparison")
            return
        yield self.check(
            "degradation",
            bool(empty.get("identical")),
            str(empty.get("detail", "")),
        )


#: The closed contract vocabulary the gate evaluates, in report order.
CONTRACTS = (
    MonotoneDegradationContract(),
    DeliveryBooksBalanceContract(),
    BoundedRepairContract(),
    NoAcknowledgedJobLostContract(),
    ResumeIdentityContract(),
    CacheNeverServesStaleContract(),
    EmptySchedulePurityContract(),
)


def evaluate_contracts(evidence: Dict) -> List[ContractCheck]:
    """Run every registered contract over the scenario evidence."""
    checks: List[ContractCheck] = []
    for contract in CONTRACTS:
        checks.extend(contract.evaluate(evidence))
    return checks


def render_contracts(checks: List[ContractCheck]) -> str:
    """Aligned text table of contract verdicts, failures first."""
    if not checks:
        return "no contract checks ran"
    width = max(len(check.contract) for check in checks)
    ordered = sorted(
        checks, key=lambda check: (check.passed, check.contract)
    )
    lines = []
    for check in ordered:
        flag = "ok  " if check.passed else "FAIL"
        lines.append(
            f"{flag}  {check.contract:<{width}}  [{check.scenario}] "
            f"{check.detail}"
        )
    failures = sum(1 for check in checks if not check.passed)
    if failures:
        lines.append(
            f"{failures} of {len(checks)} contract checks FAILED"
        )
    else:
        lines.append(f"OK: all {len(checks)} contract checks passed")
    return "\n".join(lines)
