"""Metric recorders: the zero-overhead null default and the collector.

The registry holds three metric families plus span timings:

* **counters** — monotonically increasing totals (``engine.slots``);
* **gauges** — last-write-wins levels (``resilience.availability``);
* **histograms** — fixed-bucket distributions (``engine.packet_delay_slots``);
* **spans** — accumulated wall-time statistics per named code region.

:class:`NullRecorder` is the process default: every method is a no-op, so
un-instrumented runs pay only an attribute load per call site and remain
bit-identical to never-instrumented code.  Neither recorder ever consumes
a random stream.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "SpanStats",
    "NullRecorder",
    "MetricsRecorder",
    "histogram_percentile",
]

#: Default histogram bucket upper bounds (unit-agnostic geometric ladder).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
)


class Histogram:
    """A fixed-bucket histogram with running count and sum.

    ``bounds`` are inclusive upper edges; observations above the last bound
    land in the implicit overflow bucket, so ``bucket_counts`` has
    ``len(bounds) + 1`` entries.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram bounds must be strictly increasing, got {bounds}"
            )
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> Optional[float]:
        """Mean of all observations (``None`` when empty)."""
        if self.count == 0:
            return None
        return self.total / self.count

    def to_dict(self) -> Dict:
        """JSON-serializable form (manifest ``metrics.histograms`` entries)."""
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
        }

    def percentile(self, quantile: float) -> Optional[float]:
        """Estimated percentile; see :func:`histogram_percentile`."""
        return histogram_percentile(self.bounds, self.bucket_counts, quantile)


def histogram_percentile(
    bounds: Sequence[float],
    bucket_counts: Sequence[int],
    quantile: float,
) -> Optional[float]:
    """Estimate a percentile from fixed-bucket counts.

    Linear interpolation inside the bucket holding the target rank (the
    Prometheus ``histogram_quantile`` estimator): the first bucket spans
    ``[0, bounds[0]]``, later ones ``(bounds[i-1], bounds[i]]``.  Returns
    ``None`` for an empty histogram and ``inf`` when the rank lands in
    the overflow bucket — the true value is beyond the last bound, and a
    made-up number would understate a tail regression.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {quantile}")
    total = sum(bucket_counts)
    if total == 0:
        return None
    rank = quantile * total
    cumulative = 0
    for index, count in enumerate(bucket_counts):
        cumulative += count
        if cumulative >= rank:
            if index >= len(bounds):
                return float("inf")
            lower = float(bounds[index - 1]) if index > 0 else 0.0
            upper = float(bounds[index])
            if count == 0:
                return upper
            fraction = (rank - (cumulative - count)) / count
            return lower + (upper - lower) * fraction
    return float("inf")


class SpanStats:
    """Accumulated wall-time statistics of one named span."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def add(self, elapsed_s: float, count: int = 1) -> None:
        """Fold ``count`` timed intervals totalling ``elapsed_s`` seconds.

        A batch (``count > 1``) adds to the count and total, and its mean
        is what min and max see: the individual intervals are not known.
        """
        self.count += count
        self.total_s += elapsed_s
        mean_s = elapsed_s / count
        if mean_s < self.min_s:
            self.min_s = mean_s
        if mean_s > self.max_s:
            self.max_s = mean_s

    def to_dict(self) -> Dict:
        """JSON-serializable form (manifest ``profile`` entries, ms units)."""
        mean_ms = (self.total_s / self.count) * 1e3 if self.count else 0.0
        return {
            "count": self.count,
            "total_ms": self.total_s * 1e3,
            "mean_ms": mean_ms,
            "min_ms": (self.min_s if self.count else 0.0) * 1e3,
            "max_ms": self.max_s * 1e3,
        }


class NullRecorder:
    """The do-nothing default recorder: every operation is a no-op."""

    enabled = False

    def counter_add(self, name: str, value: float = 1) -> None:
        """Discard a counter increment."""

    def gauge_set(self, name: str, value: float) -> None:
        """Discard a gauge write."""

    def observe(
        self, name: str, value: float, bounds: Optional[Sequence[float]] = None
    ) -> None:
        """Discard a histogram observation."""

    def span_add(self, name: str, elapsed_s: float, count: int = 1) -> None:
        """Discard a span timing."""

    def snapshot(self) -> Dict:
        """An empty metric snapshot."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def profile(self) -> Dict:
        """An empty profile."""
        return {}

    def merge_snapshot(
        self, snapshot: Dict, profile: Optional[Dict] = None
    ) -> None:
        """Discard a snapshot merge."""


class MetricsRecorder(NullRecorder):
    """In-memory metrics registry collecting counters, gauges, histograms
    and span timings for one instrumented run (or sweep)."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spans: Dict[str, SpanStats] = {}

    def counter_add(self, name: str, value: float = 1) -> None:
        """Increment the named counter (created at zero on first use)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        """Set the named gauge (last write wins)."""
        self.gauges[name] = float(value)

    def observe(
        self, name: str, value: float, bounds: Optional[Sequence[float]] = None
    ) -> None:
        """Record one observation into the named fixed-bucket histogram.

        ``bounds`` applies only on first use; later observations reuse the
        histogram's existing buckets.
        """
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = Histogram(bounds if bounds is not None else DEFAULT_BUCKETS)
            self.histograms[name] = histogram
        histogram.observe(value)

    def span_add(self, name: str, elapsed_s: float, count: int = 1) -> None:
        """Fold ``count`` timed intervals into the named span's statistics."""
        stats = self.spans.get(name)
        if stats is None:
            stats = SpanStats()
            self.spans[name] = stats
        stats.add(elapsed_s, count)

    def snapshot(self) -> Dict:
        """All metric values as one JSON-serializable, name-sorted dict."""
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
        }

    def profile(self) -> Dict:
        """All span statistics as one JSON-serializable, name-sorted dict."""
        return {name: self.spans[name].to_dict() for name in sorted(self.spans)}

    def merge_snapshot(
        self, snapshot: Dict, profile: Optional[Dict] = None
    ) -> None:
        """Fold another recorder's :meth:`snapshot` (and optional
        :meth:`profile`) into this registry.

        Counters add, gauges are last-write-wins in call order, and
        histograms fold bucket-by-bucket (bounds must match an existing
        histogram of the same name, else :class:`ConfigurationError`).
        Parallel sweep workers ship snapshots back to the parent, which
        merges them **in repetition order** so the combined registry is
        independent of completion order.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter_add(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge_set(name, value)
        for name, data in snapshot.get("histograms", {}).items():
            bounds = tuple(float(bound) for bound in data["bounds"])
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = Histogram(bounds)
                self.histograms[name] = histogram
            elif histogram.bounds != bounds:
                raise ConfigurationError(
                    f"cannot merge histogram {name!r}: bucket bounds differ "
                    f"({histogram.bounds} vs {bounds})"
                )
            for index, count in enumerate(data["bucket_counts"]):
                histogram.bucket_counts[index] += count
            histogram.count += data["count"]
            histogram.total += data["total"]
        for name, data in (profile or {}).items():
            stats = self.spans.get(name)
            if stats is None:
                stats = SpanStats()
                self.spans[name] = stats
            stats.count += data["count"]
            stats.total_s += data["total_ms"] / 1e3
            if data["count"]:
                stats.min_s = min(stats.min_s, data["min_ms"] / 1e3)
                stats.max_s = max(stats.max_s, data["max_ms"] / 1e3)

    def reset(self) -> None:
        """Drop every recorded value (fresh registry, same identity)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.spans.clear()
