"""Prometheus/OpenMetrics text exposition of metric snapshots.

``addc-repro obs export`` turns either a committed
``manifest/v1`` file or a live daemon ``stats`` snapshot into the
Prometheus text format, so any scraper-era tooling (promtool, Grafana's
TestData, ad-hoc ``curl | grep``) can read ADDC runs without a custom
parser.  The mapping is mechanical and deterministic:

* counters -> ``addc_<name>_total`` (``counter``), dots to underscores;
* gauges -> ``addc_<name>`` (``gauge``);
* histograms -> ``addc_<name>`` (``histogram``) with cumulative
  ``_bucket{le="..."}`` lines, ``_sum`` and ``_count`` — note
  :class:`~repro.obs.recorder.Histogram` buckets are per-bucket counts,
  so they are cumulated here, and a ``+Inf`` bucket is appended;
* span profiles -> ``addc_span_calls_total`` / ``addc_span_seconds_total``
  labelled ``{span="engine.slot"}`` — names stay dotted inside the label.

Output is sorted by metric name, so equal snapshots export equal bytes.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

__all__ = ["render_prometheus"]

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, prefix: str) -> str:
    return f"{prefix}_{_INVALID_CHARS.sub('_', name)}"


def _format_number(value: float) -> str:
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def render_prometheus(
    metrics: Optional[Dict],
    profile: Optional[Dict] = None,
    prefix: str = "addc",
) -> str:
    """Render a snapshot (+ optional span profile) as Prometheus text.

    ``metrics`` is a recorder snapshot shape — ``{"counters": ...,
    "gauges": ..., "histograms": ...}`` — exactly what a manifest's
    ``metrics`` field or the daemon's ``stats`` response carries.
    """
    metrics = metrics or {}
    lines: List[str] = []
    counters = metrics.get("counters") or {}
    for name in sorted(counters):
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_number(counters[name])}")
    gauges = metrics.get("gauges") or {}
    for name in sorted(gauges):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_number(gauges[name])}")
    histograms = metrics.get("histograms") or {}
    for name in sorted(histograms):
        histogram = histograms[name]
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(
            histogram.get("bounds") or (), histogram.get("bucket_counts") or ()
        ):
            cumulative += int(count)
            lines.append(
                f'{metric}_bucket{{le="{_format_number(bound)}"}} {cumulative}'
            )
        lines.append(
            f'{metric}_bucket{{le="+Inf"}} {int(histogram.get("count", 0))}'
        )
        lines.append(
            f"{metric}_sum {_format_number(histogram.get('total', 0.0))}"
        )
        lines.append(f"{metric}_count {int(histogram.get('count', 0))}")
    if profile:
        calls = _metric_name("span_calls", prefix) + "_total"
        seconds = _metric_name("span_seconds", prefix) + "_total"
        lines.append(f"# TYPE {calls} counter")
        for name in sorted(profile):
            label = _escape_label(name)
            lines.append(
                f'{calls}{{span="{label}"}} {int(profile[name].get("count", 0))}'
            )
        lines.append(f"# TYPE {seconds} counter")
        for name in sorted(profile):
            label = _escape_label(name)
            total_s = float(profile[name].get("total_ms", 0.0)) / 1e3
            lines.append(f'{seconds}{{span="{label}"}} {_format_number(total_s)}')
    return "\n".join(lines) + ("\n" if lines else "")
