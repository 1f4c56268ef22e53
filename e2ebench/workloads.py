"""The three workloads: one closed loop each, one op in flight, no pools.

A *unit* is the fixed work a workload does at a seed; a run repeats it
while another unit is predicted to fit in ``--seconds`` (at least once),
so every unit at one seed does identical work and yields identical
counts.  Each pass returns a :class:`UnitResult` per unit.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import repro.obs as obs
import repro.perf.executor as executor
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_comparison_repetition
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec, execute_job

from host import HostClock, OpTimer
from tracer import Tracer

HERE = Path(__file__).resolve().parent

#: fig6c-sweep: 4 p_t values x 25 repetitions = 100 ops per job.
FIG6C_REPS = 25
#: service-mix: a fixed 100 misses (new seeds) and 150 hits (repeats).
SERVICE_MISSES = 100
SERVICE_HITS = 150
#: Reference samples around each op.  A paper-scale repetition is one
#: ~20 s op, so it gets more samples on each side.
PAPER_GAP_SAMPLES = 10


@dataclass
class UnitResult:
    """One unit of work: its ops, timings, outputs and counts."""

    timer: OpTimer
    #: Raw seconds of the measured region, reference samples excluded.
    wall_raw_s: float
    #: The same region in host-normalized seconds (ops by their own
    #: reference, the rest by the run median).
    wall_norm_s: float
    #: Simulated slots (a result, fixed per seed).
    slots: int
    #: Canonical outputs; traced and untraced passes must match exactly.
    outputs: Dict
    #: Counts that must repeat exactly at the same seed.
    counts: Dict[str, float]
    #: ``(op index or None for the whole unit, message)``.
    failures: List[tuple] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Workload-specific extras (service events, harness stats, ...).
    extra: Dict = field(default_factory=dict)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    return hashlib.blake2b(canonical(value).encode(), digest_size=16).hexdigest()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _engine_counts(runs: List[Dict]) -> Dict[str, float]:
    counts: Dict[str, float] = {}
    for policy in ("addc", "coolest"):
        mine = [r for r in runs if r["policy"] == policy]
        counts[f"sim.{policy}.slots"] = sum(r["slots"] for r in mine)
        counts[f"sim.{policy}.ff_slots"] = sum(r["ff_slots"] for r in mine)
        counts[f"sim.{policy}.deliveries"] = sum(r["delivered"] for r in mine)
        counts[f"sim.{policy}.tx_attempts"] = sum(r["attempts"] for r in mine)
    return counts


def _engine_failures(runs: List[Dict]) -> List[tuple]:
    return [
        (r["op"], f"{r['policy']} engine run completed={r['completed']}, "
        f"delivered {r['delivered']} of {r['packets']} packets")
        for r in runs
        if not r["completed"] or r["delivered"] != r["packets"]
    ]


def _units(seconds: float, run_unit: Callable[[], UnitResult]) -> List[UnitResult]:
    """Repeat ``run_unit`` while another is predicted to fit in ``seconds``."""
    deadline = time.perf_counter() + seconds
    units = []
    while True:
        started = time.perf_counter()
        units.append(run_unit())
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            return units


# ---- paper-rep ------------------------------------------------------------ #


def paper_rep(seed: int, seconds: float, clock: HostClock, tracer: Tracer, work: Path):
    """Repetition 0 of the default paper-scale config, in-process."""
    config = ExperimentConfig(seed=seed)
    repetition = run_comparison_repetition
    if tracer.timed:
        repetition = tracer.wrap("experiments.repetition", repetition)

    def unit() -> UnitResult:
        timer = OpTimer(clock, PAPER_GAP_SAMPLES, tracer)
        first_run = len(tracer.engine_runs)
        measurement = timer.measure("rep", repetition, config, 0)
        timer.close()
        runs = tracer.engine_runs[first_run:]
        outputs = {
            "addc_delay_ms": measurement.addc_delay_ms,
            "coolest_delay_ms": measurement.coolest_delay_ms,
            "rng_positions": measurement.rng_positions,
        }
        failures = _engine_failures(runs)
        if measurement.addc_delay_ms is None or measurement.coolest_delay_ms is None:
            failures.append((0, "repetition hit max_slots before completing"))
        op = timer.ops[0]
        return UnitResult(
            timer=timer,
            wall_raw_s=op.raw_s,
            wall_norm_s=op.norm_s,
            slots=sum(r["slots"] for r in runs),
            outputs=outputs,
            counts=_engine_counts(runs),
            failures=failures,
            peak_rss_mb=self_peak_rss_mb(),
        )

    return _units(seconds, unit)


# ---- fig6c-sweep ---------------------------------------------------------- #


def fig6c_sweep(seed: int, seconds: float, clock: HostClock, tracer: Tracer, work: Path):
    """The full fig6 job path (supervisor, journal, artifact, trace shards)."""
    spec = JobSpec(
        kind="fig6", subfigure="c", scale="bench", seed=seed, repetitions=FIG6C_REPS
    )
    counter = iter(range(1_000_000))

    def unit() -> UnitResult:
        job_dir = work / f"fig6c-{next(counter)}"
        job_dir.mkdir(parents=True)
        timer = OpTimer(clock, 1, tracer)
        first_run = len(tracer.engine_runs)
        original = executor.execute_work_item
        # The inline supervisor looks the item runner up at call time.
        executor.execute_work_item = lambda item: timer.measure("rep", original, item)
        spent = clock.spent_s
        started = time.perf_counter()
        try:
            if tracer.timed:
                with tracer.span("bench.job"):
                    result = _run_fig6c(spec, job_dir)
            else:
                result = _run_fig6c(spec, job_dir)
            job_raw = time.perf_counter() - started - (clock.spent_s - spent)
        finally:
            executor.execute_work_item = original
        timer.close()
        runs = tracer.engine_runs[first_run:]
        artifact_bytes = (job_dir / "artifact.json").read_bytes()
        artifact = json.loads(artifact_bytes)
        journal = (job_dir / "journal.ndjson").read_text().splitlines()
        appends = sum(1 for line in journal if json.loads(line).get("kind") == "repetition")
        outputs = {
            "artifact_points": artifact["points"],
            "rng_positions": [p.rng_positions for _, p in result.points],
        }
        failures = _engine_failures(runs)
        if not result.complete:
            failures.append((None, f"job status {result.status}: {result.failures}"))
        expected_ops = 4 * FIG6C_REPS
        if len(timer.ops) != expected_ops or appends != expected_ops:
            failures.append(
                (
                    None,
                    f"{len(timer.ops)} repetitions run and {appends} journalled, "
                    f"expected {expected_ops}",
                )
            )
        overhead_raw = job_raw - timer.raw_s()
        counts = _engine_counts(runs)
        counts["harness.journal_appends"] = appends
        return UnitResult(
            timer=timer,
            wall_raw_s=job_raw,
            wall_norm_s=timer.norm_s() + clock.normalize(overhead_raw),
            slots=sum(r["slots"] for r in runs),
            outputs={"digest": digest(outputs), "artifact_sha": digest(artifact_bytes.decode())},
            counts=counts,
            failures=failures,
            peak_rss_mb=self_peak_rss_mb(),
        )

    return _units(seconds, unit)


def _run_fig6c(spec: JobSpec, job_dir: Path):
    return execute_job(
        spec,
        job_dir / "artifact.json",
        checkpoint_path=job_dir / "journal.ndjson",
        workers=1,
    )


# ---- service-mix ---------------------------------------------------------- #


def service_plan(seed: int) -> List[tuple]:
    """A seeded order of misses (new job seeds) and hits (repeats).

    The first op is always a miss; every hit repeats a spec some earlier
    miss submitted, chosen uniformly.
    """
    rng = random.Random(seed)
    kinds = ["miss"] * SERVICE_MISSES + ["hit"] * SERVICE_HITS
    rng.shuffle(kinds)
    kinds.remove("miss")
    kinds.insert(0, "miss")
    misses: List[JobSpec] = []
    plan = []
    for kind in kinds:
        if kind == "miss":
            spec = JobSpec(
                kind="compare",
                scale="quick",
                p_t=0.1,
                repetitions=1,
                seed=seed * 1000 + len(misses),
            )
            misses.append(spec)
        else:
            spec = rng.choice(misses)
        plan.append((kind, spec))
    return plan


class Daemon:
    """``repro serve --workers 1`` as a subprocess; traced via the shim."""

    def __init__(self, work: Path, traced: bool) -> None:
        self.state = work / "state"
        self.socket = os.path.relpath(work / "s.sock")
        self.span_file = work / "daemon-spans.json"
        serve = ["serve", "--socket", self.socket, "--state-dir", str(self.state), "--workers", "1"]
        if traced:
            command = [sys.executable, str(HERE / "daemon_shim.py"), str(self.span_file), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        work.mkdir(parents=True, exist_ok=True)
        self._log = open(work / "daemon.log", "wb")
        self.proc = subprocess.Popen(command, stdout=self._log, stderr=subprocess.STDOUT)
        self.client = ServiceClient(self.socket, timeout_s=120.0)

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Poll ``ping`` until the daemon answers."""
        started = time.perf_counter()
        while True:
            try:
                if self.client.ping().get("type") == "pong":
                    return
            except ReproError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            if time.perf_counter() - started > timeout_s:
                raise RuntimeError("daemon did not answer ping")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Graceful drain via ``shutdown``; kill if it does not exit."""
        try:
            if self.proc.poll() is None:
                self.client.shutdown()
                self.proc.wait(timeout=60)
        except (ReproError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._log.close()


def service_mix(seed: int, seconds: float, clock: HostClock, tracer: Tracer, work: Path):
    """Closed-loop streamed submits against a live daemon, one at a time."""
    plan = service_plan(seed)
    counter = iter(range(1_000_000))

    def unit() -> UnitResult:
        unit_dir = work / f"sm-{next(counter)}"
        daemon = Daemon(unit_dir, tracer.timed)
        try:
            daemon.wait_ready()
            timer = OpTimer(clock, 1, tracer)
            responses = []
            for kind, spec in plan:
                events: List[tuple] = []
                response = timer.measure(
                    kind,
                    daemon.client.submit,
                    spec,
                    stream=True,
                    on_event=lambda e: events.append((time.perf_counter(), e.get("type"))),
                )
                timer.ops[-1].info["events"] = events
                responses.append(response)
            timer.close()
            stats = daemon.client.stats()
            peak = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        failures, artifacts, slots = _check_service(plan, responses)
        counters = stats.get("service", {})
        hits, misses = counters.get("cache_hits", 0), counters.get("cache_misses", 0)
        counts = {
            "service.cache_hits": hits,
            "service.cache_misses": misses,
            "service.cache_hit_ratio": hits / max(1, hits + misses),
            "service.jobs_shed": counters.get("jobs_shed", 0),
        }
        extra = {"plan": plan}
        if tracer.timed:
            shim = json.loads(daemon.span_file.read_text())
            tracer.graft(shim["spans"], shim["engine_runs"])
            runs = tracer.engine_runs[len(tracer.engine_runs) - len(shim["engine_runs"]):]
            extra["daemon_profile"] = shim["profile"]
            extra["daemon_snapshot"] = shim["snapshot"]
            counts.update(_engine_counts(runs))
            failures += _engine_failures(runs)
        extra["manifest_wall_s"] = _manifest_walls(daemon.state)
        return UnitResult(
            timer=timer,
            wall_raw_s=timer.raw_s(),
            wall_norm_s=timer.norm_s(),
            slots=slots,
            outputs={"artifacts": digest(artifacts)},
            counts=counts,
            failures=failures,
            peak_rss_mb=peak,
            extra=extra,
        )

    return _units(seconds, unit)


def _check_service(plan, responses):
    """Every miss completes, every hit returns its miss's artifact."""
    failures: List[tuple] = []
    by_fingerprint: Dict[str, Dict] = {}
    artifacts = []
    slots = 0
    for index, ((kind, spec), response) in enumerate(zip(plan, responses)):
        kind_seen = response.get("type")
        fingerprint = spec.fingerprint()
        if kind == "miss":
            artifact = response.get("artifact")
            if kind_seen != "completed" or response.get("status") != "complete" or not artifact:
                failures.append((index, f"miss answered {kind_seen}/{response.get('status')}"))
                continue
            by_fingerprint[fingerprint] = artifact
            comparison = artifact["points"][0]["comparison"]
            slot_ms = comparison["config"]["slot_duration_ms"]
            slots += round(
                (comparison["addc_delays_ms"][0] + comparison["coolest_delays_ms"][0]) / slot_ms
            )
        else:
            artifact = response.get("artifact")
            if kind_seen != "cache_hit":
                failures.append((index, f"hit answered {kind_seen}"))
                continue
            if canonical(artifact) != canonical(by_fingerprint.get(fingerprint)):
                failures.append((index, "cache hit differs from the miss it repeats"))
        artifacts.append(artifact)
    return failures, artifacts, slots


def _manifest_walls(state: Path) -> Dict[str, float]:
    walls = {}
    for path in sorted((state / "cache").glob("*.manifest.json")):
        walls[path.name.split(".")[0]] = json.loads(path.read_text()).get("wall_time_s")
    return walls


WORKLOADS = {
    "paper-rep": paper_rep,
    "fig6c-sweep": fig6c_sweep,
    "service-mix": service_mix,
}


def run_pass(name: str, seed: int, seconds: float, clock: HostClock, traced: bool, work: Path):
    """One pass of a workload; the traced pass also installs a recorder."""
    work = work / ("traced" if traced else "untraced")
    tracer = Tracer(timed=traced).install()
    recorder = obs.MetricsRecorder() if traced else None
    try:
        if recorder is not None:
            with obs.use_recorder(recorder):
                units = WORKLOADS[name](seed, seconds, clock, tracer, work)
        else:
            units = WORKLOADS[name](seed, seconds, clock, tracer, work)
    finally:
        tracer.restore()
    return units, tracer, recorder
