"""``repro.service`` — the fault-tolerant experiment daemon.

A long-running local service (``addc-repro serve``) that accepts
experiment jobs over an AF_UNIX socket speaking the ``service/v1``
NDJSON protocol, and gives them the full crash-safety contract of the
harness (docs/SERVICE.md):

* **bounded queue with typed backpressure** — a full queue answers
  ``retry_after`` with exponential server-suggested backoff; a client
  is never blocked and never hangs (:mod:`repro.service.queue`);
* **fingerprint-keyed result cache** — identical requests are served
  from disk with zero engine compute (:mod:`repro.service.cache`);
* **crash-safe execution** — each job runs under the supervised harness
  with its own fsynced ``checkpoint/v1`` journal; a SIGKILL'd daemon
  resumes its backlog on restart and produces byte-identical artifacts
  (:mod:`repro.service.state`, :mod:`repro.service.daemon`);
* **graceful drain** — SIGTERM finishes the backlog, writes a manifest
  of the service counters, and tells every client;
* **one orchestration layer** — :mod:`repro.service.jobs` is shared by
  the one-shot CLI and the daemon, so both fronts run the exact same
  experiment code and agree on fingerprints.
"""

from repro.service.cache import ResultCache
from repro.service.daemon import ExperimentService
from repro.service.jobs import (
    JOB_KINDS,
    JobSpec,
    execute_job,
    run_job,
    save_job_artifact,
)
from repro.service.protocol import SERVICE_SCHEMA
from repro.service.queue import Admission, JobQueue
from repro.service.state import ServiceState

__all__ = [
    "SERVICE_SCHEMA",
    "JOB_KINDS",
    "Admission",
    "ExperimentService",
    "JobQueue",
    "JobSpec",
    "ResultCache",
    "ServiceClient",
    "ServiceServer",
    "ServiceState",
    "execute_job",
    "run_job",
    "save_job_artifact",
]


def __getattr__(name):
    # The socket layer imports lazily so transport-free users (tests,
    # the jobs layer reused by the CLI) never pay for it.
    if name == "ServiceServer":
        from repro.service.server import ServiceServer

        return ServiceServer
    if name == "ServiceClient":
        from repro.service.client import ServiceClient

        return ServiceClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
