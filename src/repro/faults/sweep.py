"""Checkpointed, resumable chaos sweeps (fault injection under the harness).

A chaos sweep is one more item kind on the single sweep path: every
repetition is a pure function of ``(config, options, repetition)`` — the
whole RNG lineage re-derives from
``StreamFactory(seed).spawn(f"chaos-rep-{i}")`` — run by
:func:`~repro.perf.executor.execute_work_item` under
:func:`~repro.harness.sweep.run_checkpointed_sweep`, supervised, traced,
and journalled into a ``checkpoint/v1`` file like any fig6 or compare
sweep.  A chaos job (:func:`repro.service.jobs.run_job` with
``kind="chaos"``) is the one way to run one; its
:class:`ChaosSweepResult` is the resilience view of the sweep.  A chaos
sweep killed at any instant resumes from its last durable record and
saves a byte-identical artifact.

Per-repetition resilience numbers (delivery, availability, repair times)
ride in the outcome's ``metrics`` dict under a ``"chaos"`` key —
:func:`repro.obs.merge_snapshot` ignores unknown keys, so the same dict
can also carry an instrumented worker's counter snapshot.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import repro.obs as obs
from repro.core.collector import run_addc_collection
from repro.errors import ExperimentIOError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RepetitionMeasurement
from repro.faults.generators import chaos_plan
from repro.harness.supervisor import FailureRecord
from repro.harness.sweep import SweepRunResult
from repro.metrics.aggregate import RunStatistics, summarize_delays
from repro.metrics.resilience import resilience_report
from repro.network.deployment import deploy_crn
from repro.obs.manifest import RunManifest, manifest_path_for, write_manifest
from repro.rng import StreamFactory
from repro.storage import atomic_write_text

__all__ = [
    "CHAOS_SWEEP_NAME",
    "ChaosOptions",
    "ChaosSweepResult",
    "run_chaos_repetition",
    "save_chaos_run",
]

CHAOS_SWEEP_NAME = "chaos"


@dataclass(frozen=True)
class ChaosOptions:
    """The fault-cocktail knobs of one chaos scenario (picklable).

    Mirrors :func:`repro.faults.generators.chaos_plan`; a plan is rebuilt
    per repetition from these options plus the repetition's own stream,
    so every repetition sees an independent (but replayable) schedule.
    """

    intensity: float = 0.2
    horizon_slots: int = 2000
    mean_downtime_slots: float = 200.0
    drop_queue: bool = True
    sensing_fault_fraction: float = 0.0
    blackout: bool = False


def _chaos_record(repetition: int, result, report) -> Dict:
    """The JSON-native per-repetition record the artifact is built from."""
    return {
        "repetition": int(repetition),
        "completed": bool(result.completed),
        "slots_simulated": int(result.slots_simulated),
        "delay_ms": result.delay_ms,
        "delivered": int(result.delivered),
        "num_packets": int(result.num_packets),
        "packets_lost": int(result.packets_lost),
        "packets_orphaned": int(result.packets_orphaned),
        "collisions": int(result.collisions),
        "total_transmissions": int(result.total_transmissions),
        "delivery_ratio": report.delivery_ratio,
        "fault_events": int(report.fault_events),
        "outages_recovered": int(report.outages_recovered),
        "outages_open": int(report.outages_open),
        "mean_repair_slots": report.mean_repair_slots,
        "max_repair_slots": report.max_repair_slots,
        "availability": float(report.availability),
        "downtime_weighted_throughput": report.downtime_weighted_throughput,
        "blackout_failures": int(report.blackout_failures),
        "arrivals_deferred": int(report.arrivals_deferred),
    }


def run_chaos_repetition(
    config: ExperimentConfig, options: ChaosOptions, repetition: int
) -> Tuple[RepetitionMeasurement, Dict]:
    """One ADDC collection under a fresh fault cocktail.

    Returns the repetition's measurement (Coolest is not run, so its
    delay is ``None``) and its JSON-native resilience record.
    """
    factory = StreamFactory(config.seed).spawn(f"chaos-rep-{repetition}")
    with obs.span("sweep.repetition"):
        topology = deploy_crn(config.deployment_spec(), factory)
        plan = chaos_plan(
            topology.secondary.su_ids(),
            options.horizon_slots,
            options.intensity,
            factory,
            drop_queue=options.drop_queue,
            mean_downtime_slots=options.mean_downtime_slots,
            sensing_fault_fraction=options.sensing_fault_fraction,
            blackout=options.blackout,
        )
        outcome = run_addc_collection(
            topology,
            factory.spawn("addc"),
            fault_plan=plan,
            with_bounds=False,
            **config.run_options(),
        )
    report = resilience_report(outcome.result, topology.secondary.num_sus)
    positions = {}
    if outcome.engine is not None:
        positions["addc"] = outcome.engine.rng_positions()
    measurement = RepetitionMeasurement(
        repetition=repetition,
        addc_delay_ms=outcome.result.delay_ms,
        coolest_delay_ms=None,
        rng_positions=positions,
    )
    return measurement, _chaos_record(repetition, outcome.result, report)


@dataclass
class ChaosSweepResult:
    """What a checkpointed chaos sweep hands back."""

    config: ExperimentConfig
    options: ChaosOptions
    #: Per-repetition chaos records, in repetition order (quarantined
    #: repetitions are absent; see ``failures``).
    records: List[Dict]
    repetitions: int
    delays: Optional[RunStatistics] = None
    status: str = "complete"
    failures: List[FailureRecord] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    cached_items: int = 0
    resumed: bool = False
    checkpoint_path: Optional[Path] = None
    config_hash: Optional[str] = None

    @classmethod
    def from_run(
        cls,
        config: ExperimentConfig,
        options: ChaosOptions,
        repetitions: int,
        run: SweepRunResult,
    ) -> "ChaosSweepResult":
        """Assemble the chaos view of one ``chaos=options`` sweep run."""
        records = [outcome.metrics["chaos"] for outcome in run.outcomes]
        delay_values = [
            outcome.measurement.addc_delay_ms
            for outcome, record in zip(run.outcomes, records)
            if record["completed"]
            and outcome.measurement.addc_delay_ms is not None
        ]
        return cls(
            config=config,
            options=options,
            records=records,
            repetitions=repetitions,
            delays=summarize_delays(delay_values) if delay_values else None,
            status=run.status,
            failures=run.failures,
            stats=run.stats,
            cached_items=run.cached_items,
            resumed=run.resumed,
            checkpoint_path=run.checkpoint_path,
            config_hash=run.config_hash,
        )

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def aggregate(self) -> Dict:
        """Sweep-level totals and means, derived purely from ``records``."""
        totals = {
            key: sum(int(record[key]) for record in self.records)
            for key in (
                "delivered",
                "num_packets",
                "packets_lost",
                "packets_orphaned",
                "fault_events",
                "outages_recovered",
                "outages_open",
                "blackout_failures",
            )
        }
        count = len(self.records)
        return {
            "repetitions": count,
            "completed": sum(
                1 for record in self.records if record.get("completed")
            ),
            "mean_availability": (
                sum(float(record["availability"]) for record in self.records)
                / count
                if count
                else None
            ),
            "mean_delay_ms": (
                self.delays.mean if self.delays is not None else None
            ),
            **totals,
        }

    def chaos_summary(self) -> Dict:
        """The ``extra["chaos"]`` block for the run manifest."""
        return {
            "status": self.status,
            "options": dataclasses.asdict(self.options),
            "aggregate": self.aggregate(),
            "stats": dict(self.stats),
            "failures": [record.to_dict() for record in self.failures],
            "cached_items": self.cached_items,
            "resumed": self.resumed,
            "config_hash": self.config_hash,
        }


def save_chaos_run(
    path: Union[str, Path],
    result: ChaosSweepResult,
    manifest: Optional[RunManifest] = None,
) -> None:
    """Write one chaos sweep to JSON, atomically and durably.

    Same discipline as :func:`repro.experiments.io.save_sweep`: temp
    sibling + replace + directory fsync, manifest written after the
    artifact.  The payload is a pure function of the sweep records, so a
    resumed sweep saves byte-identical output.
    """
    payload = {
        "name": CHAOS_SWEEP_NAME,
        "config": dataclasses.asdict(result.config),
        "options": dataclasses.asdict(result.options),
        "repetitions": result.records,
        "aggregate": result.aggregate(),
    }
    if result.status != "complete":
        payload["status"] = result.status
        payload["failures"] = [record.to_dict() for record in result.failures]
    target = Path(path)
    try:
        atomic_write_text(target, json.dumps(payload, indent=2, sort_keys=True))
    except OSError as exc:
        raise ExperimentIOError(
            f"cannot write chaos artifact {target}: {exc}"
        ) from exc
    if manifest is not None:
        write_manifest(manifest_path_for(target), manifest)
