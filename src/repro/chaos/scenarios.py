"""The fixed chaos scenario grid the gate evaluates contracts over.

Four scenarios, each deterministic given ``seed`` (every random choice —
fault schedules included — comes from named chaos streams, and the
simulated workloads are the same replayable repetitions the sweeps run):

* ``degradation`` — the simulated network under the PR-2 fault cocktail
  at increasing intensity, plus the empty-schedule purity comparison.
* ``storage`` — durable writes under injected ``ENOSPC``/``EIO``/torn
  writes, torn-journal resume identity, and cache-integrity probes.
* ``worker`` — supervised sweep items killed and hung on their first
  attempt; retries must converge to the clean run's exact results.
* ``service`` — a real daemon subprocess behind the socket fault proxy:
  dropped/partial/stalled responses, a mid-job ``SIGKILL`` and restart
  recovery (opt-in: it spawns subprocesses).

Each scenario returns ``(figures, evidence)``: ``figures`` feed the
``BENCH_resilience.json`` ratchet (every entry declares its direction
and whether it gates), ``evidence`` feeds the contract layer
(:mod:`repro.chaos.contracts`).
"""

from __future__ import annotations

import dataclasses
import json
import signal
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.chaos.proxy import ChaosSocketProxy, ConnectionFault, ProxySchedule
from repro.chaos.schedule import ChaosSchedule, ChaosWorker
from repro.chaos.storage import (
    StorageChaos,
    StorageFault,
    StorageFaultPlan,
    tear_ndjson_tail,
)
from repro.core.collector import run_addc_collection
from repro.errors import (
    ChaosError,
    ExperimentIOError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.experiments.config import ExperimentConfig
from repro.faults.sweep import ChaosOptions, run_chaos_repetition
from repro.harness.checkpoint import load_checkpoint
from repro.harness.supervisor import RetryPolicy, WorkerSupervisor
from repro.harness.sweep import run_checkpointed_sweep
from repro.metrics.resilience import resilience_report
from repro.network.deployment import deploy_crn
from repro.obs.clock import sleep_s
from repro.perf.executor import SweepWorkItem, execute_work_item
from repro.rng import StreamFactory
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, spawn_daemon
from repro.service.jobs import JobSpec, run_job, save_job_artifact
from repro.storage import atomic_write_text

__all__ = [
    "GATE_SEED",
    "scenario_config",
    "figure",
    "run_degradation_scenario",
    "run_storage_scenario",
    "run_worker_scenario",
    "run_service_scenario",
    "run_scenario_grid",
]

#: The gate's fixed seed: the grid is a regression surface, not a survey.
GATE_SEED = 20120612

#: The tiny topology every scenario simulates on.
_TINY = {"area": 900.0, "num_pus": 4, "num_sus": 20, "max_slots": 200_000}


def scenario_config(seed: int, repetitions: int = 1) -> ExperimentConfig:
    """The grid's simulation scenario: quick scale shrunk to seconds."""
    return ExperimentConfig.quick_scale().with_overrides(
        seed=seed, repetitions=repetitions, **_TINY
    )


def figure(value: float, higher_better: bool, gated: bool = True) -> Dict:
    """One ratchet figure, direction and gating declared at the source."""
    return {
        "value": float(value),
        "higher_better": bool(higher_better),
        "gated": bool(gated),
    }


# --------------------------------------------------------------------------- #
# degradation: the simulated network under the fault cocktail                 #
# --------------------------------------------------------------------------- #

#: Noise allowance between adjacent intensity points (single repetition).
RATIO_NOISE = 0.05


def _plain_repetition(config: ExperimentConfig, repetition: int):
    """The chaos repetition's exact stream lineage, minus the fault plan."""
    factory = StreamFactory(config.seed).spawn(f"chaos-rep-{repetition}")
    topology = deploy_crn(config.deployment_spec(), factory)
    outcome = run_addc_collection(
        topology,
        factory.spawn("addc"),
        with_bounds=False,
        **config.run_options(),
    )
    report = resilience_report(outcome.result, topology.secondary.num_sus)
    positions = {"addc": outcome.engine.rng_positions()}
    return outcome.result, report, positions


def run_degradation_scenario(
    seed: int = GATE_SEED,
    intensities: Tuple[float, ...] = (0.0, 0.25, 0.5),
    horizon_slots: int = 2000,
) -> Tuple[Dict, Dict]:
    """Delivery/repair figures per intensity plus the purity comparison."""
    config = scenario_config(seed)
    rows: List[Dict] = []
    purity: Optional[Dict] = None
    for intensity in intensities:
        options = ChaosOptions(
            intensity=intensity,
            horizon_slots=horizon_slots,
            sensing_fault_fraction=0.0,
        )
        measurement, record = run_chaos_repetition(config, options, 0)
        record = dict(record, intensity=float(intensity))
        rows.append(record)
        if intensity == 0.0:
            plain_result, plain_report, plain_positions = _plain_repetition(
                config, 0
            )
            chaos_positions = measurement.rng_positions
            mismatches = []
            for field_name in (
                "delay_ms",
                "delivered",
                "num_packets",
                "packets_lost",
                "collisions",
                "total_transmissions",
                "slots_simulated",
            ):
                chaos_value = record.get(field_name)
                plain_value = getattr(plain_result, field_name)
                if chaos_value != plain_value:
                    mismatches.append(
                        f"{field_name}: chaos {chaos_value!r} vs plain "
                        f"{plain_value!r}"
                    )
            if record.get("delivery_ratio") != plain_report.delivery_ratio:
                mismatches.append("delivery_ratio diverged")
            if chaos_positions != plain_positions:
                mismatches.append("RNG stream positions diverged")
            purity = {
                "identical": not mismatches,
                "detail": (
                    "empty-schedule chaos run is bit-identical to the "
                    "plain run (results and RNG positions)"
                    if not mismatches
                    else "; ".join(mismatches)
                ),
            }
    evidence = {
        "rows": rows,
        "ratio_noise": RATIO_NOISE,
        "horizon_slots": horizon_slots,
        "repair_bound_slots": float(horizon_slots),
        "empty_schedule": purity,
    }
    heaviest = rows[-1]
    figures = {
        "delivery_ratio_heaviest": figure(
            heaviest["delivery_ratio"], higher_better=True
        ),
        "availability_heaviest": figure(
            heaviest["availability"], higher_better=True
        ),
        "fault_events_heaviest": figure(
            heaviest["fault_events"], higher_better=False, gated=False
        ),
    }
    repaired = [
        row for row in rows if row.get("max_repair_slots") is not None
    ]
    if repaired:
        figures["repair_worst_slots"] = figure(
            max(float(row["max_repair_slots"]) for row in repaired),
            higher_better=False,
        )
    return figures, {"degradation": evidence}


# --------------------------------------------------------------------------- #
# storage: durable writes under injected faults                               #
# --------------------------------------------------------------------------- #


def run_storage_scenario(
    workdir: Path, seed: int = GATE_SEED
) -> Tuple[Dict, Dict]:
    """Write faults, torn journals, and cache-integrity probes."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    options = ChaosOptions(
        intensity=0.2, horizon_slots=800, sensing_fault_fraction=0.0
    )

    # Uninterrupted reference: journalled sweep plus saved artifact.
    reference_dir = workdir / "reference"
    reference_dir.mkdir()
    reference_journal = reference_dir / "journal.ndjson"
    spec = JobSpec(
        kind="chaos",
        seed=seed,
        repetitions=2,
        overrides=_TINY,
        chaos=dataclasses.asdict(options),
    )
    reference = run_job(spec, checkpoint_path=reference_journal)
    reference_artifact = reference_dir / "chaos.json"
    save_job_artifact(spec, reference, reference_artifact)
    reference_bytes = reference_artifact.read_bytes()
    reference_positions = {
        key: entry.measurement.rng_positions
        for key, entry in load_checkpoint(reference_journal).entries.items()
    }

    # ENOSPC on the artifact write: loud typed failure, no partial file.
    fault_dir = workdir / "faults"
    fault_dir.mkdir()
    enospc_plan = StorageFaultPlan(
        (StorageFault(0, "enospc"),), match="chaos"
    )
    write_failed_loud = False
    with StorageChaos(enospc_plan) as chaos:
        try:
            save_job_artifact(spec, reference, fault_dir / "chaos.json")
        except ExperimentIOError as exc:
            write_failed_loud = "enospc" in str(exc).lower() and not (
                fault_dir / "chaos.json"
            ).exists()
    faults_injected = len(chaos.injected)
    # The same write retried without chaos lands byte-identically.
    save_job_artifact(spec, reference, fault_dir / "chaos.json")
    retry_identical = (
        fault_dir / "chaos.json"
    ).read_bytes() == reference_bytes

    # Torn write: a payload prefix reaches a cache artifact; the cache
    # must refuse to serve it.
    cache = ResultCache(workdir / "cache")
    fingerprint = "f" * 32
    torn_plan = StorageFaultPlan(
        (StorageFault(0, "torn", payload_fraction=0.4),)
    )
    with StorageChaos(torn_plan):
        try:
            atomic_write_text(
                cache.artifact_path(fingerprint),
                json.dumps({"name": "chaos", "payload": list(range(64))}),
            )
        except OSError:
            pass  # the injected EIO; the torn debris is the point
    try:
        cache.load_artifact(fingerprint)
        torn_artifact_refused = False
    except ServiceError:
        torn_artifact_refused = True

    # Corrupt (non-JSON) cache entry: typed refusal, never served.
    corrupt_fp = "c" * 32
    cache.artifact_path(corrupt_fp).write_text("{not json", encoding="utf-8")
    try:
        cache.load_artifact(corrupt_fp)
        corrupt_refused = False
    except ServiceError:
        corrupt_refused = True

    # Torn journal tail -> resume: byte-identical artifact and positions.
    resume_dir = workdir / "resume"
    resume_dir.mkdir()
    resume_journal = resume_dir / "journal.ndjson"
    run_job(spec, checkpoint_path=resume_journal)
    tear_ndjson_tail(resume_journal)
    resumed = run_job(spec, checkpoint_path=resume_journal, resume=True)
    resumed_artifact = resume_dir / "chaos.json"
    save_job_artifact(spec, resumed, resumed_artifact)
    resume_identical = (
        resumed.resumed
        and resumed_artifact.read_bytes() == reference_bytes
    )
    resumed_positions = {
        key: entry.measurement.rng_positions
        for key, entry in load_checkpoint(resume_journal).entries.items()
    }
    positions_identical = resumed_positions == reference_positions

    evidence = {
        "write_failures_loud": write_failed_loud and retry_identical,
        "torn_artifact_refused": torn_artifact_refused,
        "corrupt_cache_entry_refused": corrupt_refused,
        "resume_identical": resume_identical,
        "rng_positions_identical": positions_identical,
        "faults_injected": faults_injected,
    }
    figures = {
        "storage_faults_injected": figure(
            faults_injected, higher_better=True, gated=False
        ),
    }
    return figures, {"storage": evidence}


# --------------------------------------------------------------------------- #
# worker: kill/hang injection through the supervisor                          #
# --------------------------------------------------------------------------- #


def run_worker_scenario(
    workdir: Path,
    seed: int = GATE_SEED,
    include_hang: bool = False,
    timeout_s: float = 60.0,
) -> Tuple[Dict, Dict]:
    """A supervised sweep whose first attempts die; retries must repair.

    ``include_hang`` adds a hang-at-point item (first attempt sleeps past
    ``timeout_s``); it costs one deadline expiry of wall time, so the
    smoke grid keeps it off.
    """
    workdir = Path(workdir)
    markers = workdir / "markers"
    markers.mkdir(parents=True, exist_ok=True)
    config = scenario_config(seed + 1, repetitions=3)
    options = ChaosOptions(
        intensity=0.15, horizon_slots=600, sensing_fault_fraction=0.0
    )
    items = [
        SweepWorkItem(
            point_index=0, repetition=rep, config=config, chaos=options
        )
        for rep in range(config.repetitions)
    ]
    clean = run_checkpointed_sweep("chaos", [(0.0, config)], chaos=options)
    schedule = ChaosSchedule(
        kill_first_attempt=(1,),
        hang_first_attempt=(2,) if include_hang else (),
        hang_s=max(timeout_s * 4, 20.0),
    )
    policy = RetryPolicy(
        timeout_s=timeout_s if include_hang else None,
        max_attempts=3,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
    )
    worker = ChaosWorker(execute_work_item, schedule, str(markers))
    chaotic = WorkerSupervisor(workers=2, policy=policy).run(worker, items)

    clean_measurements = {
        outcome.repetition: outcome.measurement for outcome in clean.outcomes
    }
    chaotic_measurements = {
        index: outcome.measurement
        for index, outcome in enumerate(chaotic.outcomes)
        if outcome is not None
    }
    all_completed = (
        not chaotic.failures
        and sorted(chaotic_measurements) == sorted(clean_measurements)
    )
    results_identical = all_completed and all(
        chaotic_measurements[key] == clean_measurements[key]
        for key in clean_measurements
    )
    evidence = {
        "all_items_completed": all_completed,
        "results_identical": results_identical,
        "stats": dict(chaotic.stats),
        "kills_scheduled": len(schedule.kill_first_attempt),
        "hangs_scheduled": len(schedule.hang_first_attempt),
        "attempts_per_item_max": max(chaotic.submissions),
        "max_attempts": policy.max_attempts,
    }
    figures = {
        "worker_pool_rebuilds": figure(
            chaotic.stats.get("pool_rebuilds", 0),
            higher_better=False,
            gated=False,
        ),
    }
    return figures, {"worker": evidence}


# --------------------------------------------------------------------------- #
# service: a real daemon behind the fault proxy                               #
# --------------------------------------------------------------------------- #


def run_service_scenario(
    workdir: Path, seed: int = GATE_SEED
) -> Tuple[Dict, Dict]:
    """Daemon + proxy: dropped/partial/stalled responses, SIGKILL, restart.

    Spawns real subprocesses; the gate runs it always, unit tests prefer
    the cheaper scenarios.  Raises :class:`ChaosError` when the harness
    itself cannot be stood up (daemon never answers ping).
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    state = workdir / "state"
    sock = workdir / "service.sock"
    job = JobSpec(kind="compare", seed=seed, repetitions=2, overrides=_TINY)
    fingerprint = job.fingerprint()

    # The uninterrupted in-process reference the daemon must reproduce.
    reference = workdir / "reference.json"
    save_job_artifact(job, run_job(job), reference)

    evidence: Dict = {
        "acknowledged": [],
        "completed_after_restart": [],
    }
    direct = ServiceClient(sock, timeout_s=60.0)
    with spawn_daemon(sock, state, queue_capacity=2) as daemon:
        if not direct.wait_for_ping():
            raise ChaosError("service scenario: daemon never answered ping")

        # Partial frames: one NDJSON response over many tiny sends still
        # parses (the client reassembles on newline boundaries).
        proxy_sock = workdir / "proxy-partial.sock"
        schedule = ProxySchedule(
            (ConnectionFault(0, "partial_frames", chunk=4, stall_s=0.01),)
        )
        with ChaosSocketProxy(sock, proxy_sock, schedule) as proxy:
            pong = ServiceClient(proxy_sock, timeout_s=30.0).ping()
            evidence["partial_frames_ok"] = (
                pong.get("type") == "pong"
                and proxy.faults_applied == [(0, "partial_frames")]
            )

        # Drop mid-response: the client surfaces a typed ServiceError —
        # never a hang, never a half-parsed message.
        proxy_sock = workdir / "proxy-drop.sock"
        schedule = ProxySchedule(
            (ConnectionFault(0, "drop_mid_response", after_bytes=10),)
        )
        with ChaosSocketProxy(sock, proxy_sock, schedule):
            try:
                ServiceClient(proxy_sock, timeout_s=30.0).ping()
                evidence["drop_surfaced_typed"] = False
            except ServiceUnavailableError:
                evidence["drop_surfaced_typed"] = False
            except ServiceError:
                evidence["drop_surfaced_typed"] = True

        # Stall: no heartbeat within the deadline raises the typed
        # ServiceUnavailableError instead of blocking on a dead daemon.
        proxy_sock = workdir / "proxy-stall.sock"
        schedule = ProxySchedule(
            (ConnectionFault(0, "stall", stall_s=2.0),)
        )
        with ChaosSocketProxy(sock, proxy_sock, schedule):
            stalled = ServiceClient(
                proxy_sock,
                timeout_s=0.2,
                heartbeat_deadline_s=0.6,
            )
            try:
                stalled.submit(
                    JobSpec(
                        kind="compare",
                        seed=seed + 7,
                        repetitions=1,
                        overrides=_TINY,
                    ),
                    stream=True,
                )
                evidence["stall_detected_typed"] = False
            except ServiceUnavailableError:
                evidence["stall_detected_typed"] = True
            except ServiceError:
                evidence["stall_detected_typed"] = False

        # Acknowledged job, then SIGKILL once a repetition is durable.
        accepted = direct.submit(job)
        if accepted.get("type") == "accepted":
            evidence["acknowledged"].append(fingerprint)
        journal = state / "jobs" / fingerprint / "checkpoint.ndjson"
        for _ in range(600):
            if (
                journal.exists()
                and len(journal.read_bytes().split(b"\n")) >= 3
            ):
                break
            sleep_s(0.05)
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=30)

    # Restart: the acknowledged backlog must complete, byte-identically.
    with spawn_daemon(sock, state, queue_capacity=2) as daemon:
        if not direct.wait_for_ping():
            raise ChaosError(
                "service scenario: restarted daemon never answered ping"
            )
        final = direct.wait_for_result(fingerprint)
        if (
            final.get("type") == "completed"
            and final.get("status") == "complete"
        ):
            evidence["completed_after_restart"].append(fingerprint)
        artifact = state / "cache" / f"{fingerprint}.json"
        evidence["artifact_identical"] = (
            artifact.exists()
            and artifact.read_bytes() == reference.read_bytes()
        )
        # The recovered job answers a resubmission from the cache.
        hit = direct.submit(job)
        evidence["cache_hit_after_restart"] = hit.get("type") == "cache_hit"
        direct.shutdown()
        daemon.wait(timeout=120)

    recovered = len(evidence["completed_after_restart"])
    figures = {
        "service_jobs_recovered": figure(
            recovered, higher_better=True, gated=False
        ),
    }
    return figures, {"service": evidence}


# --------------------------------------------------------------------------- #
# the grid                                                                    #
# --------------------------------------------------------------------------- #


def run_scenario_grid(
    workdir: Path,
    seed: int = GATE_SEED,
    smoke: bool = False,
    include_service: bool = True,
    progress=None,
) -> Tuple[Dict, Dict]:
    """Run the whole grid; returns merged ``(figures, evidence)``.

    ``smoke`` shrinks the degradation grid and skips the hang injection
    (deadline expiries cost real seconds); the scenario *set* is the
    same — CI exercises every layer, just smaller.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    figures: Dict = {}
    evidence: Dict = {}
    stages = [
        (
            "degradation",
            lambda: run_degradation_scenario(
                seed=seed,
                intensities=(0.0, 0.25, 0.5),
                horizon_slots=1200 if smoke else 2000,
            ),
        ),
        (
            "storage",
            lambda: run_storage_scenario(workdir / "storage", seed=seed),
        ),
        (
            "worker",
            lambda: run_worker_scenario(
                workdir / "worker",
                seed=seed,
                include_hang=not smoke,
                timeout_s=20.0,
            ),
        ),
    ]
    if include_service:
        stages.append(
            (
                "service",
                lambda: run_service_scenario(workdir / "service", seed=seed),
            )
        )
    for name, stage in stages:
        if progress is not None:
            progress(name)
        try:
            stage_figures, stage_evidence = stage()
        except ReproError:
            raise
        except OSError as exc:
            raise ChaosError(f"scenario {name!r} failed to run: {exc}") from exc
        figures.update(stage_figures)
        evidence.update(stage_evidence)
    return figures, evidence
