"""``repro.obs`` — the zero-overhead instrumentation layer.

A process-wide metrics registry (counters, gauges, fixed-bucket
histograms), monotonic span timers, NDJSON trace export (schema
``trace/v1``), and run provenance manifests.  See docs/OBSERVABILITY.md
for the naming scheme and file formats.

Design contract
---------------
* The default recorder is :class:`NullRecorder`: every facade call is a
  no-op, so un-instrumented runs are bit-identical to never-instrumented
  code and pay only a global load plus one no-op call per site.
* Instrumentation **never touches a random stream**.  Enabling a
  :class:`MetricsRecorder` changes timings collected, never simulation
  behaviour — a golden test pins this.
* All clock reads live in :mod:`repro.obs.clock`; reprolint rule OBS001
  bans ``time.time()`` / ``time.perf_counter()`` everywhere else.

Usage
-----
>>> from repro import obs
>>> with obs.use_recorder(obs.MetricsRecorder()) as recorder:
...     with obs.span("example.block"):
...         obs.counter_add("example.calls")
>>> recorder.counters["example.calls"]
1
>>> recorder.spans["example.block"].count
1
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence

from repro.obs.clock import monotonic_s, sleep_s, wall_clock_iso
from repro.obs.recorder import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRecorder,
    NullRecorder,
    SpanStats,
    histogram_percentile,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRecorder",
    "NullRecorder",
    "SpanStats",
    "monotonic_s",
    "sleep_s",
    "wall_clock_iso",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "enabled",
    "counter_add",
    "gauge_set",
    "observe",
    "snapshot",
    "profile",
    "merge_snapshot",
    "span",
    "span_add",
    "timed",
    # Re-exported submodule APIs (imported at the bottom of this module).
    "NdjsonTraceWriter",
    "load_trace",
    "trace_stats",
    "TRACE_SCHEMA",
    "RunManifest",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "manifest_path_for",
    "config_fingerprint",
    "render_report",
    "render_prometheus",
    "histogram_percentile",
    # Distributed tracing (trace/v2), from repro.obs.tracing.
    "TRACE_V2_SCHEMA",
    "SpanRecord",
    "build_repetition_spans",
    "load_spans",
    "merge_shards",
    "write_trace",
    "structural_form",
    "structure_digest",
    "span_stats",
    "render_tree",
]

_NULL = NullRecorder()
_recorder: NullRecorder = _NULL


def get_recorder() -> NullRecorder:
    """The currently installed recorder (the null default if none)."""
    return _recorder


def set_recorder(recorder: Optional[NullRecorder]) -> NullRecorder:
    """Install ``recorder`` process-wide; returns the previous recorder.

    ``None`` restores the null default.  Prefer :func:`use_recorder` for
    scoped installation.
    """
    global _recorder
    previous = _recorder
    _recorder = _NULL if recorder is None else recorder
    return previous


@contextmanager
def use_recorder(recorder: NullRecorder) -> Iterator[NullRecorder]:
    """Install ``recorder`` for the duration of a ``with`` block."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


def enabled() -> bool:
    """Whether a live (non-null) recorder is installed."""
    return _recorder.enabled


def counter_add(name: str, value: float = 1) -> None:
    """Increment a named counter on the installed recorder."""
    _recorder.counter_add(name, value)


def gauge_set(name: str, value: float) -> None:
    """Set a named gauge on the installed recorder."""
    _recorder.gauge_set(name, value)


def observe(
    name: str, value: float, bounds: Optional[Sequence[float]] = None
) -> None:
    """Record a histogram observation on the installed recorder."""
    _recorder.observe(name, value, bounds)


def snapshot() -> Dict:
    """The installed recorder's metric snapshot (empty when null)."""
    return _recorder.snapshot()


def profile() -> Dict:
    """The installed recorder's span statistics (empty when null)."""
    return _recorder.profile()


def merge_snapshot(snapshot: Dict, profile: Optional[Dict] = None) -> None:
    """Fold a worker's snapshot/profile into the installed recorder.

    A no-op under the null recorder; see
    :meth:`MetricsRecorder.merge_snapshot` for the merge semantics.
    """
    _recorder.merge_snapshot(snapshot, profile)


class _NullSpan:
    """The span handed out when no recorder is installed: does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A monotonic-clock timer feeding one named span's statistics."""

    __slots__ = ("name", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = monotonic_s()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _recorder.span_add(self.name, monotonic_s() - self._start)
        return False


def span(name: str):
    """A context manager timing the enclosed block under ``name``.

    With the null recorder installed this returns a shared no-op span:
    no clock read, no allocation.
    """
    if _recorder.enabled:
        return _Span(name)
    return _NULL_SPAN


def span_add(name: str, total_s: float, count: int = 1) -> None:
    """Fold ``count`` intervals timed elsewhere, ``total_s`` in all, into
    the span ``name``.

    For code that keeps its own clock-read accumulators in a hot loop and
    publishes them once; min and max see the batch mean.
    """
    _recorder.span_add(name, total_s, count)


def timed(name: str):
    """Decorator timing every call of the wrapped function under ``name``.

    The null-recorder fast path calls the function directly — no clock
    read, no context manager.
    """

    def decorate(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            recorder = _recorder
            if not recorder.enabled:
                return function(*args, **kwargs)
            start = monotonic_s()
            try:
                return function(*args, **kwargs)
            finally:
                recorder.span_add(name, monotonic_s() - start)

        return wrapper

    return decorate


# Submodule APIs re-exported for one-stop `from repro import obs` use.
# Imported last: these modules may import the facade defined above.
from repro.obs.manifest import (  # noqa: E402
    MANIFEST_SCHEMA,
    RunManifest,
    build_manifest,
    config_fingerprint,
    load_manifest,
    manifest_path_for,
    write_manifest,
)
from repro.obs.export import render_prometheus  # noqa: E402
from repro.obs.report import render_report  # noqa: E402
from repro.obs.tracing import (  # noqa: E402
    TRACE_V2_SCHEMA,
    SpanRecord,
    build_repetition_spans,
    load_spans,
    merge_shards,
    render_tree,
    span_stats,
    structural_form,
    structure_digest,
    write_trace,
)

# The trace re-exports resolve lazily (PEP 562): `repro.obs.trace_io`
# imports `repro.sim.trace`, and an eager import here would cycle when an
# instrumented module deep in the `repro.sim` import chain (geometry,
# graphs, the engine itself) pulls in `repro.obs` mid-initialization.
_TRACE_EXPORTS = frozenset(
    {
        "TRACE_SCHEMA",
        "NdjsonTraceWriter",
        "event_from_dict",
        "event_to_dict",
        "load_trace",
        "trace_stats",
    }
)


def __getattr__(name: str):
    if name in _TRACE_EXPORTS:
        from repro.obs import trace_io

        return getattr(trace_io, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
