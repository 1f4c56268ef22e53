"""Experiment jobs: one declarative spec, one execution path.

A :class:`JobSpec` is the picklable, JSON-native description of one unit
of experiment work — a Figure-6 sub-figure sweep, an ADDC-vs-Coolest
comparison point, or a chaos (fault-injection) sweep.  Both front ends
run the *same* code through :func:`run_job`:

* the one-shot CLI (``addc-repro fig6/compare/chaos``) builds a spec
  from its arguments and runs it in-process;
* the experiment daemon (:mod:`repro.service.daemon`) decodes specs from
  ``service/v1`` submit requests and runs them on its queue.

Because a spec pins the full semantic configuration, its
:meth:`JobSpec.fingerprint` equals the checkpoint-journal fingerprint of
the equivalent CLI run — the daemon's result cache and a CLI journal
therefore agree about which runs are "the same experiment".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import repro.obs as obs
from repro.errors import ServiceError
from repro.experiments.config import SCALES, ExperimentConfig, resolve_config
from repro.experiments.fig6 import FIG6_SWEEPS, sweep_point_configs
from repro.experiments.io import sweep_payload, write_artifact
from repro.faults.sweep import (
    CHAOS_SWEEP_NAME,
    ChaosOptions,
    chaos_payload,
    chaos_summary,
)
from repro.harness import RetryPolicy, SweepRunResult, run_checkpointed_sweep
from repro.harness.sweep import sweep_fingerprint
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.tracing import merge_shards, write_trace

__all__ = [
    "JOB_KINDS",
    "JobSpec",
    "manifest_extra",
    "run_job",
    "save_job_artifact",
    "execute_job",
]

JOB_KINDS = ("fig6", "compare", "chaos")

_SPEC_FIELDS = (
    "kind",
    "scale",
    "seed",
    "blocking",
    "repetitions",
    "p_t",
    "subfigure",
    "values",
    "overrides",
    "chaos",
)


def _freeze_pairs(value) -> Tuple[Tuple[str, object], ...]:
    """Canonicalize a dict/pair-sequence into a sorted hashable tuple."""
    if not value:
        return ()
    items = value.items() if isinstance(value, dict) else value
    return tuple(sorted((str(key), val) for key, val in items))


@dataclass(frozen=True)
class JobSpec:
    """The semantic definition of one experiment job (order-insensitive).

    ``overrides`` / ``chaos`` are stored as sorted key/value tuples so
    two specs that mean the same experiment are equal, hash equal, and
    fingerprint equal regardless of how their fields were spelled.
    """

    kind: str
    scale: str = "quick"
    seed: int = 2012
    blocking: str = "homogeneous"
    repetitions: Optional[int] = None
    p_t: Optional[float] = None
    #: Figure-6 sub-figure letter (``"a"``..``"f"``); fig6 jobs only.
    subfigure: Optional[str] = None
    #: Optional subset of the sub-figure's x-values; fig6 jobs only.
    values: Optional[Tuple[float, ...]] = None
    #: Extra :class:`ExperimentConfig` overrides, as sorted pairs.
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: :class:`~repro.faults.sweep.ChaosOptions` overrides; chaos only.
    chaos: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {self.kind!r} (expected one of {JOB_KINDS})"
            )
        if self.scale not in SCALES:
            raise ServiceError(
                f"unknown job scale {self.scale!r} "
                f"(expected one of {tuple(sorted(SCALES))})"
            )
        if self.values is not None:
            object.__setattr__(
                self, "values", tuple(float(v) for v in self.values)
            )
        object.__setattr__(self, "overrides", _freeze_pairs(self.overrides))
        object.__setattr__(self, "chaos", _freeze_pairs(self.chaos))
        if self.kind == "fig6":
            if f"fig6{self.subfigure}" not in FIG6_SWEEPS:
                raise ServiceError(
                    f"fig6 job needs subfigure in "
                    f"{tuple(k[-1] for k in sorted(FIG6_SWEEPS))}, "
                    f"got {self.subfigure!r}"
                )
        else:
            if self.subfigure is not None or self.values is not None:
                raise ServiceError(
                    f"{self.kind} job must not set subfigure/values"
                )
        if self.chaos and self.kind != "chaos":
            raise ServiceError(f"{self.kind} job must not set chaos options")

    # ---- wire form ---------------------------------------------------- #

    def to_dict(self) -> Dict:
        """JSON-native form for the ``service/v1`` submit request."""
        return {
            "kind": self.kind,
            "scale": self.scale,
            "seed": self.seed,
            "blocking": self.blocking,
            "repetitions": self.repetitions,
            "p_t": self.p_t,
            "subfigure": self.subfigure,
            "values": list(self.values) if self.values is not None else None,
            "overrides": dict(self.overrides),
            "chaos": dict(self.chaos),
        }

    @classmethod
    def from_dict(cls, record: Dict) -> "JobSpec":
        """Rebuild a spec from its wire form; rejects unknown fields."""
        if not isinstance(record, dict):
            raise ServiceError("job spec must be a JSON object")
        unknown = sorted(set(record) - set(_SPEC_FIELDS))
        if unknown:
            raise ServiceError(f"job spec has unknown fields: {unknown}")
        if "kind" not in record:
            raise ServiceError("job spec needs a 'kind'")
        try:
            return cls(**record)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"invalid job spec: {exc}") from exc

    # ---- semantics ---------------------------------------------------- #

    def config(self) -> ExperimentConfig:
        """The experiment configuration this spec pins (see
        :func:`~repro.experiments.config.resolve_config`)."""
        return resolve_config(
            self.scale,
            seed=self.seed,
            blocking=self.blocking,
            repetitions=self.repetitions,
            p_t=self.p_t,
            overrides=dict(self.overrides),
        )

    def sweep_name(self) -> str:
        if self.kind == "fig6":
            return f"fig6{self.subfigure}"
        if self.kind == "compare":
            return "comparison"
        return CHAOS_SWEEP_NAME

    def chaos_options(self) -> Optional[ChaosOptions]:
        """The fault options of a chaos job; ``None`` for other kinds."""
        if self.kind != "chaos":
            return None
        try:
            return ChaosOptions(**dict(self.chaos))
        except TypeError as exc:
            raise ServiceError(f"invalid chaos options: {exc}") from exc

    def points(self) -> List[Tuple[float, ExperimentConfig]]:
        """The ``(x, config)`` pairs of the job (one for compare/chaos)."""
        config = self.config()
        if self.kind != "fig6":
            return [(0.0, config)]
        sweep = FIG6_SWEEPS[self.sweep_name()]
        if self.values is not None:
            sweep = dataclasses.replace(sweep, values=self.values)
        return sweep_point_configs(sweep, config)

    def fingerprint(self) -> str:
        """The BLAKE2b identity of this job's result.

        Identical to the checkpoint-journal fingerprint the equivalent
        CLI run would compute, so the daemon cache, CLI journals
        and resumed runs all name the same experiment the same way.
        """
        config = self.config()
        points = self.points()
        return sweep_fingerprint(
            self.sweep_name(),
            points,
            [config.repetitions] * len(points),
            self.chaos_options(),
        )

    def describe(self) -> str:
        """One human line for logs: kind, scale, seed, repetition count."""
        return (
            f"{self.sweep_name()} scale={self.scale} seed={self.seed} "
            f"reps={self.config().repetitions}"
        )


def manifest_extra(spec: JobSpec, run: SweepRunResult, workers: int) -> Dict:
    """The manifest ``extra`` block of one job run (the CLI's shape too)."""
    extra: Dict = {"sweep": spec.sweep_name(), "workers": workers}
    if spec.kind == "chaos":
        extra["chaos"] = chaos_summary(spec.chaos_options(), run)
    else:
        extra["harness"] = run.harness_summary()
    return extra


def run_job(
    spec: JobSpec,
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    workers: int = 1,
    policy: Optional[RetryPolicy] = None,
    progress=None,
    pool=None,
) -> SweepRunResult:
    """Execute one job under the crash-safe harness.

    The single execution path behind both front ends: supervised
    workers, durable journalling when ``checkpoint_path`` is given,
    fingerprint-checked resume, quarantine instead of abort.  Results
    are byte-identical for any worker count and any kill/resume history.
    ``pool`` injects a caller-owned
    :class:`~repro.perf.pool.WarmWorkerPool` that stays warm across jobs
    (the daemon's cross-job pool).
    """
    return run_checkpointed_sweep(
        spec.sweep_name(),
        spec.points(),
        on_incomplete="skip",
        checkpoint_path=checkpoint_path,
        resume=resume,
        workers=workers,
        policy=policy,
        progress=progress,
        pool=pool,
        chaos=spec.chaos_options(),
    )


def save_job_artifact(
    spec: JobSpec,
    run: SweepRunResult,
    path: Union[str, Path],
    manifest: Optional[RunManifest] = None,
) -> None:
    """Write a job's artifact (and optional manifest sibling) durably.

    The payload is a pure function of the measured records, so a resumed
    or cached job saves bytes identical to an uninterrupted run.
    """
    if spec.kind == "chaos":
        payload = chaos_payload(spec.config(), spec.chaos_options(), run)
    else:
        payload = sweep_payload(run.name, run.points)
    write_artifact(
        path,
        payload,
        manifest=manifest,
        status=run.status,
        failures=[record.to_dict() for record in run.failures],
    )


def execute_job(
    spec: JobSpec,
    artifact_path: Union[str, Path],
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    workers: int = 1,
    policy: Optional[RetryPolicy] = None,
    progress=None,
    extra: Optional[Dict] = None,
    pool=None,
) -> SweepRunResult:
    """Run one job start-to-finish and persist its artifact + manifest.

    The daemon's per-job unit of work: the job runs under its own fresh
    :class:`~repro.obs.MetricsRecorder` (so the manifest describes *this*
    job, not the daemon's lifetime), and the snapshot is merged back into
    the ambient recorder afterwards so daemon-level totals still add up.

    Every job is traced end to end: the trace id **is** the job
    fingerprint, and the span profiles the repetitions returned (or the
    journal replayed) merge — always in submission order, whatever order
    workers finished in — into ``<base>/trace.ndjson``, where ``<base>``
    is the journal's directory (or the artifact's, when running without
    a journal).  Every durable write of the job happens in this process.
    """
    base = (
        Path(checkpoint_path).parent
        if checkpoint_path is not None
        else Path(artifact_path).parent
    )
    base.mkdir(parents=True, exist_ok=True)
    recorder = obs.MetricsRecorder()
    started = obs.monotonic_s()
    with obs.use_recorder(recorder):
        result = run_job(
            spec,
            checkpoint_path=checkpoint_path,
            resume=resume,
            workers=workers,
            policy=policy,
            progress=progress,
            pool=pool,
        )
        job_extra = manifest_extra(spec, result, workers)
        if extra:
            job_extra.update(extra)
        manifest = build_manifest(
            seed=spec.seed,
            config=spec.config(),
            wall_time_s=obs.monotonic_s() - started,
            recorder=recorder,
            extra=job_extra,
        )
    if obs.enabled():
        obs.merge_snapshot(recorder.snapshot(), recorder.profile())
    save_job_artifact(spec, result, artifact_path, manifest=manifest)
    if result.outcomes:
        spans = merge_shards(
            [
                (outcome.point_index, outcome.repetition, outcome.profile)
                for outcome in result.outcomes
            ],
            job_name=spec.sweep_name(),
        )
        write_trace(base / "trace.ndjson", spec.fingerprint(), spans)
    return result
