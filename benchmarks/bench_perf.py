"""Perf bench — pooled sweep pipeline and vectorized kernels, equality-gated.

Two comparisons, both asserted for exact equality before any timing is
trusted:

* **serial vs parallel** — the same comparison repetitions through
  :func:`repro.harness.run_checkpointed_sweep`, inline and on a warm
  pool; measurements, RNG stream positions, and merged metric snapshots
  must match byte-for-byte.  The
  speedup assertion is conditional on the machine actually having cores:
  on a single-CPU host process parallelism cannot win and the honest
  result is recorded, not hidden (see docs/PERFORMANCE.md).
* **scalar vs vectorized** — the CSR :class:`~repro.geometry.GridIndex`
  against the preserved :class:`~repro.perf.ScalarGridIndex` reference on
  a bench-scale point set; outputs must be list-identical and the
  vectorized index must be faster.
"""

from __future__ import annotations

import os

import numpy as np

import repro.obs as obs
from repro.geometry import GridIndex
from repro.perf.bench import _bench_sweep
from repro.perf.reference import ScalarGridIndex
from repro.rng import StreamFactory

#: Modest floor for the batch-vectorized spatial kernels at bench scale.
MIN_SPATIAL_SPEEDUP = 2.0
#: Floor for process-parallel fan-out when the cores exist to back it.
MIN_PARALLEL_SPEEDUP_4_WORKERS = 3.0


def test_parallel_sweep_identical_and_scales(benchmark, base_config):
    config = base_config.with_overrides(repetitions=2)
    workers = 4

    # _bench_sweep raises PerfBenchError unless parallel == serial
    # (measurements, RNG positions, merged metrics) — the timing below is
    # only reported once that equality gate has passed.
    result = benchmark.pedantic(
        lambda: _bench_sweep(config, config.repetitions, workers),
        rounds=1,
        iterations=1,
    )
    cpus = os.cpu_count() or 1
    print(
        f"\nserial {result['serial_s']:.2f} s, {workers} workers "
        f"{result['warm_parallel_s']:.2f} s "
        f"({result['warm_parallel_speedup']:.2f}x on {cpus} cpu)"
    )
    assert result["serial_s"] > 0 and result["warm_parallel_s"] > 0
    if cpus >= 4:
        assert (
            result["warm_parallel_speedup"] >= MIN_PARALLEL_SPEEDUP_4_WORKERS
        )
    elif cpus >= 2:
        assert result["warm_parallel_speedup"] > 1.0


def test_vectorized_spatial_kernels_match_and_beat_scalar(
    benchmark, base_config
):
    rng = StreamFactory(base_config.seed).spawn("bench-perf").stream("points")
    side = float(np.sqrt(base_config.area))
    positions = rng.random((4 * base_config.num_sus, 2)) * side
    others = rng.random((4 * base_config.num_pus, 2)) * side
    radius = base_config.su_radius

    def scalar_pass():
        index = ScalarGridIndex(positions, radius)
        return index.neighbor_lists(radius), index.cross_neighbor_lists(
            others, radius
        )

    def vectorized_pass():
        index = GridIndex(positions, radius)
        return index.neighbor_lists(radius), index.cross_neighbor_lists(
            others, radius
        )

    start = obs.monotonic_s()
    scalar_result = scalar_pass()
    scalar_s = obs.monotonic_s() - start

    vectorized_result = benchmark.pedantic(
        vectorized_pass, rounds=3, iterations=1
    )
    start = obs.monotonic_s()
    vectorized_pass()
    vectorized_s = obs.monotonic_s() - start

    assert vectorized_result == scalar_result
    speedup = scalar_s / vectorized_s if vectorized_s > 0 else float("inf")
    print(
        f"\nscalar {scalar_s * 1e3:.1f} ms, vectorized "
        f"{vectorized_s * 1e3:.1f} ms ({speedup:.1f}x, "
        f"{len(positions)} points)"
    )
    assert speedup >= MIN_SPATIAL_SPEEDUP
