"""Shared fixtures: small deployed topologies and seeded stream factories."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory


@pytest.fixture(scope="session")
def quick_config() -> ExperimentConfig:
    """The test-sized scenario (80 SUs, 16 PUs, 50x50)."""
    return ExperimentConfig.quick_scale()


@pytest.fixture(scope="session")
def streams() -> StreamFactory:
    """A fixed-seed stream factory (fresh generators per stream name)."""
    return StreamFactory(seed=20120612)


@pytest.fixture(scope="session")
def quick_topology(quick_config, streams):
    """One deployed CRN shared across read-only tests."""
    return deploy_crn(quick_config.deployment_spec(), streams.spawn("topology"))


@pytest.fixture(scope="session")
def tiny_topology(streams):
    """A very small CRN (25 SUs) for per-slot invariant checks."""
    config = ExperimentConfig(
        area=30.0 * 30.0, num_pus=6, num_sus=25, repetitions=1, max_slots=100_000
    )
    return deploy_crn(config.deployment_spec(), streams.spawn("tiny"))


@pytest.fixture(scope="session")
def standalone_topology(streams):
    """A PU-free secondary network — the setting of Theorem 1's proof."""
    config = ExperimentConfig(
        area=30.0 * 30.0, num_pus=0, num_sus=25, p_t=0.0, repetitions=1
    )
    return deploy_crn(config.deployment_spec(), streams.spawn("standalone"))


@pytest.fixture(scope="session")
def run_chaos_job():
    """Run one tiny chaos job through ``execute_job`` into ``job_dir``.

    Returns a callable ``run(job_dir, workers=1, resume=False)`` yielding
    ``(artifact bytes, RNG positions per (point, rep), trace structure)``
    — everything a chaos run must reproduce for any worker count and
    any kill/resume history (trace timings excluded).
    """
    from repro.harness import load_checkpoint
    from repro.obs.tracing import load_spans, structural_form
    from repro.service.jobs import JobSpec, execute_job

    spec = JobSpec(
        kind="chaos",
        seed=20120612,
        repetitions=3,
        overrides={"area": 900.0, "num_pus": 4, "num_sus": 20, "max_slots": 200_000},
        chaos={"intensity": 0.3, "horizon_slots": 500, "mean_downtime_slots": 100.0},
    )

    def run(job_dir, workers=1, resume=False):
        job_dir.mkdir(parents=True, exist_ok=True)
        journal = job_dir / "journal.ndjson"
        execute_job(
            spec,
            job_dir / "artifact.json",
            checkpoint_path=journal,
            resume=resume,
            workers=workers,
        )
        positions = {
            key: outcome.measurement.rng_positions
            for key, outcome in load_checkpoint(journal).entries.items()
        }
        _header, spans = load_spans(job_dir / "trace.ndjson")
        return (
            (job_dir / "artifact.json").read_bytes(),
            positions,
            structural_form(spans),
        )

    return run
