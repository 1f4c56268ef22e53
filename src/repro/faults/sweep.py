"""Checkpointed, resumable chaos sweeps (fault injection under the harness).

A chaos sweep is one more item kind on the single sweep path: every
repetition is a pure function of ``(config, options, repetition)`` — the
whole RNG lineage re-derives from
``StreamFactory(seed).spawn(f"chaos-rep-{i}")`` — run by
:func:`~repro.perf.executor.execute_work_item` under
:func:`~repro.harness.sweep.run_checkpointed_sweep`, supervised, traced,
and journalled into a ``checkpoint/v1`` file like any fig6 or compare
sweep.  A chaos job (:func:`repro.service.jobs.run_job` with
``kind="chaos"``) is the one way to run one; it returns the harness's
:class:`~repro.harness.sweep.SweepRunResult`, and the functions here
(:func:`chaos_records`, :func:`chaos_aggregate`, :func:`chaos_payload`,
:func:`chaos_summary`) read the resilience view off it.  A chaos sweep
killed at any instant resumes from its last durable record and saves a
byte-identical artifact.

Per-repetition resilience numbers (delivery, availability, repair times)
ride in the outcome's ``metrics`` dict under a ``"chaos"`` key —
:func:`repro.obs.merge_snapshot` ignores unknown keys, so the same dict
can also carry an instrumented worker's counter snapshot.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.core.collector import run_addc_collection
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RepetitionMeasurement
from repro.faults.generators import chaos_plan
from repro.harness.sweep import SweepRunResult
from repro.metrics.aggregate import RunStatistics, summarize_delays
from repro.metrics.resilience import resilience_report
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory

__all__ = [
    "CHAOS_SWEEP_NAME",
    "ChaosOptions",
    "run_chaos_repetition",
    "chaos_records",
    "chaos_delays",
    "chaos_aggregate",
    "chaos_payload",
    "chaos_summary",
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
    measurement = RepetitionMeasurement(
        repetition=repetition,
        addc_delay_ms=outcome.result.delay_ms,
        coolest_delay_ms=None,
        rng_positions={"addc": outcome.engine.rng_positions()},
    )
    return measurement, _chaos_record(repetition, outcome.result, report)


def chaos_records(run: SweepRunResult) -> List[Dict]:
    """Per-repetition chaos records of a ``chaos=options`` sweep run, in
    repetition order (quarantined repetitions are absent; see
    ``run.failures``)."""
    return [outcome.metrics["chaos"] for outcome in run.outcomes]


def chaos_delays(run: SweepRunResult) -> Optional[RunStatistics]:
    """ADDC delay statistics over the run's completed repetitions."""
    values = [
        outcome.measurement.addc_delay_ms
        for outcome in run.outcomes
        if outcome.metrics["chaos"]["completed"]
        and outcome.measurement.addc_delay_ms is not None
    ]
    return summarize_delays(values) if values else None


def chaos_aggregate(run: SweepRunResult) -> Dict:
    """Sweep-level totals and means, derived purely from the records."""
    records = chaos_records(run)
    totals = {
        key: sum(int(record[key]) for record in records)
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
    count = len(records)
    delays = chaos_delays(run)
    return {
        "repetitions": count,
        "completed": sum(1 for record in records if record.get("completed")),
        "mean_availability": (
            sum(float(record["availability"]) for record in records) / count
            if count
            else None
        ),
        "mean_delay_ms": delays.mean if delays is not None else None,
        **totals,
    }


def chaos_payload(
    config: ExperimentConfig, options: ChaosOptions, run: SweepRunResult
) -> Dict:
    """The artifact payload of one chaos sweep: a pure function of the
    sweep records, so a resumed sweep saves byte-identical output."""
    return {
        "name": CHAOS_SWEEP_NAME,
        "config": dataclasses.asdict(config),
        "options": dataclasses.asdict(options),
        "repetitions": chaos_records(run),
        "aggregate": chaos_aggregate(run),
    }


def chaos_summary(options: ChaosOptions, run: SweepRunResult) -> Dict:
    """The ``extra["chaos"]`` block for the run manifest: the harness
    summary's audit fields plus the fault options and the aggregate."""
    harness = run.harness_summary()
    summary = {
        key: harness[key]
        for key in (
            "status",
            "stats",
            "failures",
            "cached_items",
            "resumed",
            "config_hash",
        )
    }
    summary["options"] = dataclasses.asdict(options)
    summary["aggregate"] = chaos_aggregate(run)
    return summary
