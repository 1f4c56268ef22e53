"""Exception hierarchy for the ADDC reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch library failures without masking unrelated bugs::

    try:
        run_collection(config)
    except ReproError as exc:
        ...

Machine-readable taxonomy
-------------------------
Every class carries a stable ``code`` string (``ReproError.code``), and
:meth:`ReproError.as_record` / :func:`error_record` render any exception
as a plain ``{"code", "type", "message"}`` dict.  The crash-safe harness
(:mod:`repro.harness`) stores these records in checkpoint journals and
run manifests, so a sweep's failure history stays greppable after the
process that produced it is gone.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "GraphError",
    "DisconnectedNetworkError",
    "PcrDomainError",
    "SimulationError",
    "InterferenceViolationError",
    "WorkloadError",
    "ExperimentIOError",
    "PartialSweepError",
    "ObservabilityError",
    "HarnessError",
    "CheckpointError",
    "WorkerTimeoutError",
    "WorkerCrashError",
    "ServiceError",
    "ProtocolError",
    "ServiceUnavailableError",
    "ChaosError",
    "error_record",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""

    #: Stable machine-readable error code; subclasses override.
    code: str = "repro"

    def as_record(self) -> Dict[str, str]:
        """This error as a plain ``{"code", "type", "message"}`` dict."""
        return {
            "code": self.code,
            "type": type(self).__name__,
            "message": str(self),
        }


class ConfigurationError(ReproError):
    """A configuration value is out of its valid domain.

    Raised eagerly, at construction time, so that invalid parameter
    combinations never reach the simulator.
    """

    code = "config"


class GeometryError(ReproError):
    """A geometric argument is invalid (negative radius, empty region, ...)."""

    code = "geometry"


class GraphError(ReproError):
    """A graph operation received an invalid graph or node."""

    code = "graph"


class DisconnectedNetworkError(GraphError):
    """The secondary network graph G_s is not connected.

    The paper assumes G_s is connected (Section III); deployments that fail
    this assumption after the configured number of attempts raise this error
    rather than silently producing an unreachable data-collection task.
    """

    code = "graph-disconnected"


class PcrDomainError(ReproError):
    """The PCR constants are outside their valid domain.

    The paper's constant ``c2 = 6 + 6 (sqrt(3)/2)^-alpha (1/(alpha-2) - 1)``
    becomes non-positive for ``alpha`` greater than roughly 4.25 because the
    derivation bounds the Riemann zeta function by ``zeta(x) <= 1/(x-1)``,
    which is only valid as ``x -> 1``.  When the paper's bound is requested
    in that regime this error is raised; the ``safe`` and ``exact`` bounds
    never raise.
    """

    code = "pcr-domain"


class SimulationError(ReproError):
    """The simulator reached an inconsistent state (an internal invariant broke)."""

    code = "simulation"


class InterferenceViolationError(SimulationError):
    """The SIR validator observed a concurrent set violating the physical model.

    With a correctly derived PCR this never happens (Lemmas 2-3); it is kept
    as a loud failure mode for experimentation with under-sized sensing
    ranges.
    """

    code = "interference"


class WorkloadError(ReproError):
    """A workload description is invalid or inconsistent with the topology."""

    code = "workload"


class ExperimentIOError(ReproError):
    """An experiment artifact on disk is unreadable or malformed.

    The message always names the offending path, so a failed overnight
    sweep points straight at the file to inspect or delete.
    """

    code = "experiment-io"


class PartialSweepError(ExperimentIOError):
    """A sweep artifact is marked ``status: partial`` (quarantined items).

    The crash-safe harness saves a sweep even when some (point, repetition)
    items were quarantined after exhausting their retry budget; the
    artifact then carries ``"status": "partial"`` plus the failed-item
    list.  :func:`repro.experiments.io.load_sweep` refuses such artifacts
    unless called with ``allow_partial=True``, so partial data is never
    mistaken for a complete evaluation.
    """

    code = "partial-sweep"


class ObservabilityError(ReproError):
    """An observability artifact (trace, manifest) is invalid or malformed.

    Like :class:`ExperimentIOError`, the message always names the offending
    path or field.
    """

    code = "observability"


class HarnessError(ReproError):
    """The crash-safe experiment harness hit an unrecoverable condition.

    Base class of the harness taxonomy (:mod:`repro.harness`): checkpoint
    problems, worker deadline violations, and worker crashes all derive
    from it, each with a distinct machine-readable :attr:`code`.
    """

    code = "harness"


class CheckpointError(HarnessError):
    """A checkpoint journal is unusable: corrupt, mismatched, or clobbered.

    Raised on mid-file corruption (a torn *tail* is repaired instead, see
    docs/ROBUSTNESS.md), on a ``config_hash`` that does not match the sweep
    being resumed, and on an attempt to start a fresh sweep over an
    existing journal without ``resume=True``.  The message always names
    the offending path.
    """

    code = "checkpoint"


class WorkerTimeoutError(HarnessError):
    """A supervised work item exceeded its per-item deadline."""

    code = "worker-timeout"


class WorkerCrashError(HarnessError):
    """A supervised worker process died abruptly (e.g. OOM-killed).

    Attributed to a specific work item by the supervisor's isolation
    probe: after a pool break, in-flight items re-run one at a time so a
    repeat crash names its culprit exactly.
    """

    code = "worker-crash"


class ServiceError(ReproError):
    """The experiment service hit an unrecoverable condition.

    Base class of the :mod:`repro.service` taxonomy: malformed protocol
    traffic, unusable state directories, and invalid job specs all derive
    from it.  Per-job failures are *not* errors at this level — they are
    quarantined into structured failure records and reported to the
    submitting client, so a poisoned job never takes the daemon down.
    """

    code = "service"


class ProtocolError(ServiceError):
    """A ``service/v1`` message is malformed or of an unknown type.

    Raised while decoding client requests or server responses; the daemon
    answers the offending client with a structured error record and keeps
    serving everyone else.
    """

    code = "service-protocol"


class ServiceUnavailableError(ServiceError):
    """The daemon stopped talking: no heartbeat/progress within the deadline.

    Raised by :class:`repro.service.client.ServiceClient` when a
    connection goes silent for longer than its configured heartbeat
    deadline — the typed signal that the daemon (or the path to it) is
    dead, as opposed to a job that is merely slow.  Callers react by
    reconnecting, polling ``result`` against a restarted daemon, or
    surfacing the outage; they never block forever on a dead socket.
    """

    code = "service-unavailable"


class ChaosError(ReproError):
    """The chaos harness itself failed (not the system under test).

    Distinguishes broken scenario plumbing — a proxy that cannot bind, a
    fault schedule that references writes that never happen, a scenario
    that produced no evidence — from genuine resilience findings, which
    are reported as failed contract checks in the gate output.
    """

    code = "chaos"


def error_record(exc: BaseException) -> Dict[str, str]:
    """Render any exception as a ``{"code", "type", "message"}`` dict.

    :class:`ReproError` instances report their own :attr:`~ReproError.code`;
    foreign exceptions get code ``"external"``.  Used by the harness's
    :class:`~repro.harness.FailureRecord` so quarantined items serialize
    uniformly no matter what their worker raised.
    """
    if isinstance(exc, ReproError):
        return exc.as_record()
    return {
        "code": "external",
        "type": type(exc).__name__,
        "message": str(exc),
    }
