"""``addc-repro perf bench`` — serial vs warm-pool sweeps, fast-forward
on vs off, scalar vs vectorized.

Everything is measured via the :mod:`repro.obs` clock facade on the same
machine in the same run, and every timed comparison is also an equality
check: the sweep pipeline on a warm pool must reproduce the serial
pipeline's measurements byte-for-byte (delays, RNG stream positions, merged metric
counters), the fast-forwarded engine must reproduce the plain engine's
result and stream positions exactly, and the vectorized CSR
:class:`~repro.geometry.GridIndex` must return exactly what the scalar
reference returns.  A benchmark that drifts is a bug, not a data point.

The output (``BENCH_perf.json``) is a ``manifest/v1`` run manifest whose
``extra`` block carries the benchmark numbers, including ``cpu_count`` —
parallel speedups are only meaningful relative to the cores the machine
actually had (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RepetitionMeasurement
from repro.geometry import GridIndex
from repro.harness import FAIL_FAST, run_checkpointed_sweep
from repro.perf.pool import WarmWorkerPool
from repro.perf.reference import ScalarGridIndex
from repro.rng import StreamFactory

__all__ = ["run_perf_bench", "PerfBenchError"]


class PerfBenchError(AssertionError):
    """An equality invariant failed during the benchmark."""


def _measurement_key(measurement: RepetitionMeasurement) -> tuple:
    return (
        measurement.repetition,
        measurement.addc_delay_ms,
        measurement.coolest_delay_ms,
        tuple(sorted(
            (algo, tuple(sorted(positions.items())))
            for algo, positions in measurement.rng_positions.items()
        )),
    )


def _timed_sweep(
    config: ExperimentConfig,
    reps: int,
    workers: int,
    pool: Optional[WarmWorkerPool] = None,
) -> Tuple[float, tuple, obs.MetricsRecorder]:
    """One timed pass through the sweep pipeline.

    Returns ``(seconds, measurement keys, recorder)``; a repetition that
    fails is not retried and fails the bench.
    """
    recorder = obs.MetricsRecorder()
    start = obs.monotonic_s()
    with obs.use_recorder(recorder):
        result = run_checkpointed_sweep(
            "perf-bench",
            [(0.0, config)],
            repetitions=reps,
            workers=workers,
            policy=FAIL_FAST,
            pool=pool,
        )
    elapsed = obs.monotonic_s() - start
    if not result.complete:
        raise PerfBenchError(
            "sweep repetitions failed: "
            + "; ".join(record.describe() for record in result.failures)
        )
    keys = tuple(_measurement_key(o.measurement) for o in result.outcomes)
    return elapsed, keys, recorder


def _bench_sweep(config: ExperimentConfig, reps: int, workers: int) -> Dict:
    """Time the comparison repetitions serially and on a warm pool.

    Both passes run the one sweep pipeline
    (:func:`~repro.harness.run_checkpointed_sweep`): serial is its inline
    ``workers=1`` case, the pooled pass borrows a pool already primed by
    an untimed, equally checked pass — what sweeps and the daemon
    actually pay per point/job.  The pooled passes must equal serial —
    measurements, RNG positions, and merged metric snapshots — so a
    drifting kernel fails the bench rather than skewing it.
    """
    serial_s, serial, serial_recorder = _timed_sweep(config, reps, 1)
    with WarmWorkerPool(workers) as pool:
        for label in ("prime", "warm"):
            warm_s, pooled, recorder = _timed_sweep(config, reps, workers, pool)
            if pooled != serial:
                raise PerfBenchError(
                    f"{label} measurements diverged from serial"
                )
            if recorder.snapshot() != serial_recorder.snapshot():
                raise PerfBenchError(
                    f"merged {label} metric snapshot diverged from the "
                    "serial one"
                )
    return {
        "repetitions": reps,
        "workers": workers,
        "serial_s": serial_s,
        "warm_parallel_s": warm_s,
        "warm_parallel_speedup": serial_s / warm_s if warm_s > 0 else 0.0,
        "serial_recorder": serial_recorder,
    }


def _bench_engine(config: ExperimentConfig) -> Dict:
    """Time one ADDC collection with fast-forward off, then on.

    Both runs share one deployment and re-derive identical engine
    streams; the fast-forward run must reproduce the plain run exactly —
    the full :class:`~repro.sim.results.SimulationResult` *and* the
    post-run RNG stream positions — or the bench fails.  The ratio is a
    same-machine figure, so the ratchet gates it.
    """
    from repro.core.collector import run_addc_collection
    from repro.network.deployment import deploy_crn

    topology = deploy_crn(
        config.deployment_spec(), StreamFactory(config.seed).spawn("rep-0")
    )

    def run(fast_forward: bool):
        streams = StreamFactory(config.seed).spawn("rep-0").spawn("addc")
        start = obs.monotonic_s()
        outcome = run_addc_collection(
            topology,
            streams,
            eta_p_db=config.eta_p_db,
            eta_s_db=config.eta_s_db,
            alpha=config.alpha,
            zeta_bound=config.zeta_bound,
            blocking=config.blocking,
            max_slots=config.max_slots,
            fast_forward=fast_forward,
            contention_window_ms=config.contention_window_ms,
            slot_duration_ms=config.slot_duration_ms,
            with_bounds=False,
        )
        return obs.monotonic_s() - start, outcome

    off_s, off = run(fast_forward=False)
    on_s, on = run(fast_forward=True)
    if on.result != off.result:
        raise PerfBenchError("fast-forward changed the simulation result")
    if on.engine.rng_positions() != off.engine.rng_positions():
        raise PerfBenchError("fast-forward changed the RNG stream positions")
    slots = max(int(on.result.slots_simulated), 1)
    return {
        "slots": slots,
        "plain_s": off_s,
        "fastforward_s": on_s,
        "wall_us_per_slot": on_s / slots * 1e6,
        "fastforward_ratio": off_s / on_s if on_s > 0 else 0.0,
        "fastforward_fraction": float(on.engine.fastforward_slots) / slots,
    }


def _bench_spatial(config: ExperimentConfig, loops: int) -> Dict:
    """Time scalar vs vectorized neighbor scans on one deployment-like set.

    Uses the same point counts, region, and radii as ``config`` so the
    numbers reflect what the simulator actually asks of the index.
    """
    side = float(np.sqrt(config.area))
    rng = StreamFactory(config.seed).spawn("perf-bench").stream("spatial")
    su_positions = rng.random((config.num_sus, 2)) * side
    pu_positions = rng.random((max(config.num_pus, 1), 2)) * side
    radius = config.su_radius

    start = obs.monotonic_s()
    for _ in range(loops):
        scalar = ScalarGridIndex(su_positions, radius)
        scalar_neighbors = scalar.neighbor_lists(radius)
        scalar_cross = scalar.cross_neighbor_lists(pu_positions, radius)
    scalar_s = obs.monotonic_s() - start

    start = obs.monotonic_s()
    for _ in range(loops):
        vectorized = GridIndex(su_positions, radius)
        vectorized_neighbors = vectorized.neighbor_lists(radius)
        vectorized_cross = vectorized.cross_neighbor_lists(pu_positions, radius)
    vectorized_s = obs.monotonic_s() - start

    if vectorized_neighbors != scalar_neighbors:
        raise PerfBenchError("vectorized neighbor_lists diverged from scalar")
    if vectorized_cross != scalar_cross:
        raise PerfBenchError(
            "vectorized cross_neighbor_lists diverged from scalar"
        )
    return {
        "points": int(config.num_sus),
        "cross_points": int(max(config.num_pus, 1)),
        "loops": loops,
        "scalar_s": scalar_s,
        "vectorized_s": vectorized_s,
        "speedup": scalar_s / vectorized_s if vectorized_s > 0 else 0.0,
    }


def run_perf_bench(
    config: ExperimentConfig,
    workers: int = 4,
    out: str = "BENCH_perf.json",
    smoke: bool = False,
) -> int:
    """Run the performance benchmark; returns a process exit code.

    ``smoke`` shrinks the workload to CI size (two repetitions, two
    workers, one spatial loop) — the equality invariants are asserted
    either way, so the smoke run is a full correctness gate for both the
    pooled sweep pipeline and the vectorized kernels.
    """
    if smoke:
        config = config.with_overrides(repetitions=2)
        workers = min(workers, 2)
        spatial_loops = 1
    else:
        spatial_loops = 5
    reps = config.repetitions

    total_start = obs.monotonic_s()
    sweep = _bench_sweep(config, reps, workers)
    engine = _bench_engine(config)
    spatial = _bench_spatial(config, spatial_loops)
    wall_time_s = obs.monotonic_s() - total_start

    recorder = sweep.pop("serial_recorder")
    extra = {
        "benchmark": "perf",
        "cpu_count": os.cpu_count(),
        "sweep": sweep,
        "engine": engine,
        "spatial": spatial,
    }
    manifest = obs.build_manifest(
        seed=config.seed,
        config=config,
        wall_time_s=wall_time_s,
        recorder=recorder,
        extra=extra,
    )
    obs.write_manifest(out, manifest)

    print(
        f"sweep   : {reps} repetition(s) serial {sweep['serial_s']:.2f} s, "
        f"{workers} worker(s) warm {sweep['warm_parallel_s']:.2f} s "
        f"({sweep['warm_parallel_speedup']:.2f}x, {os.cpu_count()} cpu)"
    )
    print(
        f"engine  : {engine['slots']} slots plain {engine['plain_s']:.2f} s, "
        f"fast-forward {engine['fastforward_s']:.2f} s "
        f"({engine['fastforward_ratio']:.2f}x, "
        f"{engine['fastforward_fraction']:.0%} of slots skipped)"
    )
    print(
        f"spatial : scalar {spatial['scalar_s']:.3f} s, vectorized "
        f"{spatial['vectorized_s']:.3f} s ({spatial['speedup']:.2f}x, "
        f"{spatial['points']} points x {spatial['loops']} loop(s))"
    )
    print(
        "pooled == serial, fast-forward == plain, vectorized == scalar; "
        f"written to {out}"
    )
    if smoke:
        print("perf smoke OK")
    return 0
