"""Repetition-averaged ADDC vs Coolest comparison runs.

Each repetition deploys a fresh CRN (fresh placements and fresh activity
randomness, like the paper's "each group of simulations is repeated for 10
times and the results are the average values") and runs both algorithms on
*the same deployment*, which removes placement variance from the
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import repro.obs as obs
from repro.core.collector import run_addc_collection
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import ExperimentConfig
from repro.obs.progress import Heartbeat
from repro.metrics.aggregate import (
    RunStatistics,
    relative_delay_reduction_percent,
    summarize_delays,
)
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory
from repro.routing.coolest import run_coolest_collection

__all__ = [
    "ComparisonPoint",
    "RepetitionMeasurement",
    "run_comparison_repetition",
    "assemble_comparison_point",
    "run_comparison_point",
    "run_addc_only",
]


@dataclass
class ComparisonPoint:
    """Averaged results of both algorithms for one scenario."""

    config: ExperimentConfig
    addc_delay_ms: RunStatistics
    coolest_delay_ms: RunStatistics
    addc_delays: List[float] = field(default_factory=list)
    coolest_delays: List[float] = field(default_factory=list)
    #: Repetitions dropped by ``on_incomplete="skip"`` (either algorithm
    #: hit max_slots); the averages cover the surviving repetitions only.
    skipped_repetitions: int = 0
    #: Post-run RNG stream position digests per repetition (never
    #: serialized by ``save_sweep``): one ``{"addc": {...}, "coolest":
    #: {...}}`` entry per repetition, including skipped ones.  Lets the
    #: determinism tests assert the parallel executor consumed every
    #: stream exactly as the serial path did.
    rng_positions: List[Dict[str, Dict[str, str]]] = field(default_factory=list)

    @property
    def reduction_percent(self) -> float:
        """The paper's "ADDC induces X% less delay" number."""
        return relative_delay_reduction_percent(
            self.addc_delay_ms.mean, self.coolest_delay_ms.mean
        )

    @property
    def speedup(self) -> float:
        """Coolest delay divided by ADDC delay."""
        return self.coolest_delay_ms.mean / self.addc_delay_ms.mean

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the ADDC-vs-Coolest gap survives Welch's t-test.

        Returns ``False`` when fewer than two repetitions are available
        (no variance estimate, nothing to test).
        """
        if len(self.addc_delays) < 2 or len(self.coolest_delays) < 2:
            return False
        from repro.metrics.stats import comparison_significant

        is_significant, _ = comparison_significant(
            self.addc_delays, self.coolest_delays, alpha=alpha
        )
        return is_significant


def _require_complete(delay_ms: Optional[float], label: str, rep: int) -> float:
    if delay_ms is None:
        raise SimulationError(
            f"{label} run (repetition {rep}) hit max_slots before completing; "
            "raise max_slots or shrink the scenario"
        )
    return delay_ms


@dataclass
class RepetitionMeasurement:
    """One repetition's results, in a picklable parallel-safe form."""

    repetition: int
    addc_delay_ms: Optional[float]
    coolest_delay_ms: Optional[float]
    #: Post-run RNG stream position digests per algorithm
    #: (``{"addc": {...}, "coolest": {...}}``).
    rng_positions: Dict[str, Dict[str, str]] = field(default_factory=dict)


def run_comparison_repetition(
    config: ExperimentConfig, repetition: int
) -> RepetitionMeasurement:
    """Run one repetition of the ADDC-vs-Coolest comparison.

    Top-level by design: parallel sweep workers import and call this
    under the ``spawn`` start method, re-deriving the repetition's whole
    RNG lineage (``StreamFactory(seed).spawn(f"rep-{i}")``) from nothing
    but the picklable ``(config, repetition)`` pair — which is what makes
    parallel results byte-identical to serial order.
    """
    root = StreamFactory(config.seed)
    with obs.span("sweep.repetition"):
        factory = root.spawn(f"rep-{repetition}")
        topology = deploy_crn(config.deployment_spec(), factory)
        addc = run_addc_collection(
            topology,
            factory.spawn("addc"),
            with_bounds=False,
            **config.run_options(),
        )
        coolest = run_coolest_collection(
            topology, factory.spawn("coolest"), **config.run_options()
        )
    positions = {}
    if addc.engine is not None:
        positions["addc"] = addc.engine.rng_positions()
    if coolest.engine is not None:
        positions["coolest"] = coolest.engine.rng_positions()
    return RepetitionMeasurement(
        repetition=repetition,
        addc_delay_ms=addc.result.delay_ms,
        coolest_delay_ms=coolest.result.delay_ms,
        rng_positions=positions,
    )


def assemble_comparison_point(
    config: ExperimentConfig,
    measurements: Iterable[RepetitionMeasurement],
    on_incomplete: str = "raise",
) -> ComparisonPoint:
    """Fold repetition measurements into one :class:`ComparisonPoint`.

    Measurements arrive in repetition order, whether they were journalled
    or freshly computed, serially or in parallel.  The accounting here is
    the single source of truth for skip/raise semantics.
    """
    if on_incomplete not in ("raise", "skip"):
        raise ConfigurationError(
            f"on_incomplete must be 'raise' or 'skip', got {on_incomplete!r}"
        )
    addc_delays: List[float] = []
    coolest_delays: List[float] = []
    rng_positions: List[Dict[str, Dict[str, str]]] = []
    skipped = 0
    total = 0
    for measurement in measurements:
        total += 1
        rng_positions.append(measurement.rng_positions)
        if on_incomplete == "skip" and (
            measurement.addc_delay_ms is None
            or measurement.coolest_delay_ms is None
        ):
            skipped += 1
            obs.counter_add("sweep.repetitions_skipped")
            continue
        addc_delays.append(
            _require_complete(
                measurement.addc_delay_ms, "ADDC", measurement.repetition
            )
        )
        coolest_delays.append(
            _require_complete(
                measurement.coolest_delay_ms, "Coolest", measurement.repetition
            )
        )
    if not addc_delays:
        raise SimulationError(
            f"all {total} repetitions hit max_slots before completing; "
            "raise max_slots or shrink the scenario"
        )
    return ComparisonPoint(
        config=config,
        addc_delay_ms=summarize_delays(addc_delays),
        coolest_delay_ms=summarize_delays(coolest_delays),
        addc_delays=addc_delays,
        coolest_delays=coolest_delays,
        skipped_repetitions=skipped,
        rng_positions=rng_positions,
    )


def run_comparison_point(
    config: ExperimentConfig,
    repetitions: Optional[int] = None,
    on_incomplete: str = "raise",
    progress: Optional[Heartbeat] = None,
    workers: int = 1,
) -> ComparisonPoint:
    """Run ADDC and Coolest over ``repetitions`` fresh deployments.

    ``on_incomplete`` decides what an incomplete repetition (either
    algorithm hitting ``max_slots``) does: ``"raise"`` (default) aborts
    the point with a :class:`SimulationError`; ``"skip"`` drops that
    repetition from the averages and counts it in
    :attr:`ComparisonPoint.skipped_repetitions` — the right behaviour for
    long sweep drivers, where one pathological deployment should cost one
    data point's precision, not the whole overnight sweep.

    ``progress`` (a :class:`~repro.obs.Heartbeat`) gets one tick per
    completed repetition; it is purely an output device and never affects
    the run.

    ``workers`` > 1 fans the repetitions out over a warm ``spawn`` pool;
    each worker re-derives its RNG streams from ``(seed, repetition)``,
    so the result is bit-identical to the serial default (``workers=1``)
    for any worker count and completion order.

    The repetitions run through :func:`repro.harness.run_checkpointed_sweep`
    with :data:`~repro.harness.FAIL_FAST`: a failing repetition is not
    retried, and raises a :class:`~repro.errors.PartialSweepError` naming
    the error's type and message.  Journalled, retried or partial runs
    go through :func:`repro.service.jobs.run_job`, as the CLI's do.
    """
    return _run_plain_sweep(
        "comparison",
        [(0.0, config)],
        repetitions=repetitions,
        on_incomplete=on_incomplete,
        progress=progress,
        workers=workers,
    )[0][1]


def _run_plain_sweep(
    name: str,
    points: List[Tuple[float, ExperimentConfig]],
    *,
    repetitions: Optional[int],
    on_incomplete: str,
    progress: Optional[Heartbeat],
    workers: int,
) -> List[Tuple[float, ComparisonPoint]]:
    """Run ``points`` fail-fast and unjournalled; raise unless complete.

    The shared body of :func:`run_comparison_point` and
    :func:`~repro.experiments.fig6.run_fig6_sweep`.
    """
    from repro.errors import PartialSweepError
    from repro.harness import FAIL_FAST, run_checkpointed_sweep

    result = run_checkpointed_sweep(
        name,
        points,
        repetitions=repetitions,
        on_incomplete=on_incomplete,
        workers=workers,
        policy=FAIL_FAST,
        progress=progress,
    )
    if result.status != "complete":
        failed = "; ".join(record.describe() for record in result.failures)
        raise PartialSweepError(
            f"sweep {name} is partial (quarantined items: "
            f"{failed or 'dropped points ' + str(result.dropped_points)}); "
            "run it as a job (repro.service.jobs.run_job) to keep the "
            "surviving points"
        )
    return result.points


def run_addc_only(
    config: ExperimentConfig,
    repetitions: Optional[int] = None,
    fairness_wait: bool = True,
    use_cds_tree: bool = True,
    zeta_bound: Optional[str] = None,
) -> RunStatistics:
    """Repetition-averaged ADDC delay with ablation switches.

    Used by the ablation benchmarks (fairness wait, zeta bound, routing
    structure); returns the delay statistics in milliseconds.
    """
    reps = repetitions if repetitions is not None else config.repetitions
    options = config.run_options()
    if zeta_bound is not None:
        options["zeta_bound"] = zeta_bound
    delays: List[float] = []
    root = StreamFactory(config.seed)
    for rep in range(reps):
        with obs.span("sweep.repetition"):
            factory = root.spawn(f"rep-{rep}")
            topology = deploy_crn(config.deployment_spec(), factory)
            outcome = run_addc_collection(
                topology,
                factory.spawn("addc"),
                fairness_wait=fairness_wait,
                use_cds_tree=use_cds_tree,
                with_bounds=False,
                **options,
            )
        obs.counter_add("sweep.repetitions")
        delays.append(_require_complete(outcome.result.delay_ms, "ADDC", rep))
    return summarize_delays(delays)
