"""Distributed tracing for multi-process jobs (schema ``trace/v2``).

Where ``trace/v1`` (:mod:`repro.obs.trace_io`) records *simulator* events
— one line per transmission inside one engine run — ``trace/v2`` records
*spans*: the timed tree of work a whole job performed across the daemon,
the supervisor, and its spawn workers.  Every identity in a trace is
deterministic:

* the ``trace_id`` **is** the job/sweep BLAKE2b fingerprint
  (:meth:`repro.service.jobs.JobSpec.fingerprint` /
  :func:`repro.harness.sweep.sweep_fingerprint`), so the trace of a job
  names the same experiment as its result cache entry and its
  checkpoint journal;
* every ``span_id`` is its name path in the tree (``job``,
  ``job/point-0``, ``job/point-0/rep-1``,
  ``job/point-0/rep-1/engine.slot``, ...) — no wall clock, no
  randomness, no PIDs.  Two runs of the same spec produce
  byte-identical traces *modulo the timing fields*
  (:data:`TIMING_FIELDS`), which is exactly what
  :func:`structure_digest` hashes.

Each ``(point, repetition)`` work item returns its span profile to the
parent, which journals it; :func:`merge_shards` rebuilds every
repetition's subtree from those ``(point, repetition, profile)`` triples
(:func:`build_repetition_spans` is a pure function of the item's
coordinates and its profile) and folds them into one causally-ordered
per-job trace in submission order — the same discipline as
:meth:`~repro.obs.recorder.MetricsRecorder.merge_snapshot` — so the
merged trace is independent of worker completion order.  A repetition
replayed from a checkpoint journal carries its journalled profile, which
is why a SIGKILL'd-and-resumed job merges to the same tree as an
uninterrupted one.

Line shapes::

    {"merged": true, "schema": "trace/v2", "spans": 7, "trace_id": "9c0f..."}
    {"span_id": "job", "parent_id": null, "name": "fig6c", ...}
    {"span_id": "job/point-0/rep-1", "parent_id": "job/point-0", "name": "rep-1", ...}
    ...

Loading a ``trace/v1`` file here (or a ``trace/v2`` file with the v1
loader) raises :class:`~repro.errors.ObservabilityError` naming **both**
schemas, so mixed-era tooling fails loudly instead of misparsing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ObservabilityError
from repro.storage import RecordError, iter_records, write_records

__all__ = [
    "TRACE_V2_SCHEMA",
    "TIMING_FIELDS",
    "SpanRecord",
    "build_repetition_spans",
    "load_spans",
    "iter_spans",
    "iter_trace_records",
    "merge_shards",
    "write_trace",
    "structural_form",
    "structure_digest",
    "span_stats",
    "render_tree",
]

TRACE_V2_SCHEMA = "trace/v2"

#: The only fields of a span record that may differ between two runs of
#: the same spec (wall-clock measurements).  Everything else — ids,
#: names, parentage, counts, ordering — is deterministic.
TIMING_FIELDS = ("total_ms", "mean_ms", "min_ms", "max_ms")


@dataclass
class SpanRecord:
    """One span line of a ``trace/v2`` file (timing fields optional)."""

    span_id: str
    parent_id: Optional[str]
    name: str
    count: int = 1
    total_ms: Optional[float] = None
    mean_ms: Optional[float] = None
    min_ms: Optional[float] = None
    max_ms: Optional[float] = None

    def to_dict(self) -> Dict:
        line: Dict = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "count": self.count,
        }
        for field in TIMING_FIELDS:
            value = getattr(self, field)
            if value is not None:
                line[field] = value
        return line

    @classmethod
    def from_dict(cls, line: Dict) -> "SpanRecord":
        try:
            return cls(
                span_id=str(line["span_id"]),
                parent_id=line.get("parent_id"),
                name=str(line["name"]),
                count=int(line.get("count", 1)),
                total_ms=line.get("total_ms"),
                mean_ms=line.get("mean_ms"),
                min_ms=line.get("min_ms"),
                max_ms=line.get("max_ms"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(
                f"bad trace span record {line!r}: {exc}"
            ) from exc


def build_repetition_spans(
    point_index: int, repetition: int, profile: Optional[Dict]
) -> List[SpanRecord]:
    """The span subtree of one ``(point, repetition)`` work item.

    A pure function of the deterministic inputs: the item's coordinates
    and the worker's span profile (as journalled by ``checkpoint/v1``).
    Fresh outcomes and journal replays therefore produce identical
    subtrees — structure always, timings too when the profile came from
    the same run.  Each id is the span's name path; the names of one
    profile are distinct, so the ids are too.
    """
    point_id = f"job/point-{point_index}"
    rep_id = f"{point_id}/rep-{repetition}"
    profile = profile or {}
    rep_stats = profile.get("sweep.repetition")
    rep_span = SpanRecord(
        span_id=rep_id, parent_id=point_id, name=f"rep-{repetition}"
    )
    if rep_stats is not None:
        rep_span.count = int(rep_stats.get("count", 1))
        for field in TIMING_FIELDS:
            setattr(rep_span, field, rep_stats.get(field))
    spans = [rep_span]
    for name in sorted(profile):
        stats = profile[name]
        spans.append(
            SpanRecord(
                span_id=f"{rep_id}/{name}",
                parent_id=rep_id,
                name=name,
                count=int(stats.get("count", 0)),
                total_ms=stats.get("total_ms"),
                mean_ms=stats.get("mean_ms"),
                min_ms=stats.get("min_ms"),
                max_ms=stats.get("max_ms"),
            )
        )
    return spans


def iter_trace_records(path: Union[str, Path]) -> Iterator[Dict]:
    """Stream every record of a trace file of either schema, header first.

    Trace files are written whole, so unlike a journal a torn final line
    (:func:`repro.storage.iter_records`) is refused, as is an empty file;
    errors are :class:`ObservabilityError` naming the path.  Records are
    parsed as the caller consumes them (one at a time), so a torn tail
    is refused when the stream reaches it.
    """
    empty = True
    try:
        with open(path, "rb") as handle:
            for _offset, record in iter_records(handle):
                if record is None:
                    raise ObservabilityError(
                        f"trace file {path} ends in a torn line; trace files "
                        "are written whole, so it is incomplete"
                    )
                empty = False
                yield record
    except RecordError as exc:
        raise ObservabilityError(f"trace file {path} is corrupt at {exc}") from exc
    except OSError as exc:
        raise ObservabilityError(f"cannot read trace file {path}: {exc}") from exc
    if empty:
        raise ObservabilityError(f"trace file {path} is empty (no header line)")


def _check_schema(path: Union[str, Path], header: Dict) -> None:
    schema = header.get("schema")
    if schema == TRACE_V2_SCHEMA:
        return
    if schema == "trace/v1":
        raise ObservabilityError(
            f"trace file {path} has schema 'trace/v1' (simulator events), "
            f"expected {TRACE_V2_SCHEMA!r} (job spans); load it with "
            "repro.obs.load_trace / `addc-repro trace stats` instead"
        )
    raise ObservabilityError(
        f"trace file {path} has schema {schema!r}, expected "
        f"{TRACE_V2_SCHEMA!r}"
    )


def load_spans(
    path: Union[str, Path]
) -> Tuple[Dict, List[SpanRecord]]:
    """Load one ``trace/v2`` file; returns ``(header, spans)``.

    Validates the header schema (a ``trace/v1`` file raises an error
    naming both versions) and the header's declared span count.
    """
    records = iter_trace_records(path)
    header = next(records)
    _check_schema(path, header)
    return header, list(iter_spans(path, header, records))


def iter_spans(
    path: Union[str, Path], header: Dict, records: Iterator[Dict]
) -> Iterator[SpanRecord]:
    """The spans of a ``trace/v2`` record stream whose ``header``
    (already checked) was read from ``path`` (named in errors); the
    header's declared span count is checked once the stream ends."""
    count = 0
    for line in records:
        count += 1
        yield SpanRecord.from_dict(line)
    declared = header.get("spans")
    if declared is not None and int(declared) != count:
        raise ObservabilityError(
            f"trace file {path} declares {declared} spans but contains "
            f"{count}"
        )


def merge_shards(
    shards: Iterable[Tuple[int, int, Optional[Dict]]],
    job_name: Optional[str] = None,
) -> List[SpanRecord]:
    """Fold per-repetition span profiles into one per-job span list.

    ``shards`` are ``(point, repetition, profile)`` triples: what each
    work item returned, or what the journal replayed.  Each becomes its
    repetition subtree through :func:`build_repetition_spans`, ordered
    by the ``(point, repetition)`` submission key — **never** by argument
    or completion order — so the merge is invariant under any shuffling
    of ``shards`` (the ``merge_snapshot`` discipline, applied to traces).

    The result starts with the root ``job`` span and one synthetic
    ``point-<i>`` span per sweep point (timing folded up from its
    repetitions), followed by each repetition subtree in order.
    """
    by_point: Dict[int, List[List[SpanRecord]]] = {}
    for point, rep, profile in sorted(shards, key=lambda shard: shard[:2]):
        by_point.setdefault(point, []).append(
            build_repetition_spans(point, rep, profile)
        )

    job_span = SpanRecord(
        span_id="job", parent_id=None, name=job_name or "job", count=1
    )
    merged: List[SpanRecord] = [job_span]
    point_totals: List[float] = []
    for point, subtrees in by_point.items():
        point_span = SpanRecord(
            span_id=f"job/point-{point}",
            parent_id="job",
            name=f"point-{point}",
            count=len(subtrees),
        )
        merged.append(point_span)
        rep_totals = []
        for spans in subtrees:
            merged.extend(spans)
            if spans[0].total_ms is not None:
                rep_totals.append(spans[0].total_ms)
        if rep_totals:
            point_span.total_ms = sum(rep_totals)
            point_totals.append(point_span.total_ms)
    if point_totals:
        job_span.total_ms = sum(point_totals)
    return merged


def write_trace(
    path: Union[str, Path], trace_id: str, spans: Sequence[SpanRecord]
) -> None:
    """Atomically write one merged ``trace/v2`` file."""
    target = Path(path)
    header = {
        "schema": TRACE_V2_SCHEMA,
        "trace_id": str(trace_id),
        "merged": True,
        "spans": len(spans),
    }
    try:
        write_records(target, [header, *(span.to_dict() for span in spans)])
    except OSError as exc:
        raise ObservabilityError(
            f"cannot write trace file {target}: {exc}"
        ) from exc


def structural_form(spans: Sequence[SpanRecord]) -> List[Dict]:
    """Span records with the :data:`TIMING_FIELDS` stripped.

    What is left — ids, parentage, names, counts, and the list order —
    is the deterministic identity of the trace: two runs of the same
    spec (interrupted or not, any worker count) must agree on it.
    """
    structural = []
    for span in spans:
        line = span.to_dict()
        for field in TIMING_FIELDS:
            line.pop(field, None)
        structural.append(line)
    return structural


def structure_digest(spans: Sequence[SpanRecord]) -> str:
    """BLAKE2b digest of the canonical structural form (timing excluded)."""
    import hashlib

    payload = json.dumps(structural_form(spans), sort_keys=True)
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def _percentile(sorted_values: Sequence[float], quantile: float) -> float:
    """Linear-interpolation percentile of an ascending value list."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = quantile * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    return float(
        sorted_values[low] + (sorted_values[high] - sorted_values[low]) * fraction
    )


def _by_time(entry: Tuple[float, str, str]) -> Tuple[float, str]:
    """Slowest first, ties by span id (then emission order)."""
    return entry[:2]


def span_stats(spans: Iterable[SpanRecord], top: int = 0) -> Dict:
    """Per-name summary of spans, in one pass (JSON-serializable).

    For every span name: how many records carry it, the summed
    ``total_ms``, and p50/p95/p99 over the records' durations — the
    distribution of one named phase across the job's repetitions.  With
    ``top > 0`` the result also lists the ``top`` slowest individual
    spans (by ``total_ms``).
    """
    by_name: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    total = 0
    #: ``(-total_ms, span_id, name)`` of every timed span, when ``top``.
    timed: List[Tuple[float, str, str]] = []
    for span in spans:
        total += 1
        counts[span.name] = counts.get(span.name, 0) + 1
        if span.total_ms is not None:
            by_name.setdefault(span.name, []).append(float(span.total_ms))
            if top > 0:
                timed.append((-float(span.total_ms), span.span_id, span.name))
    names: Dict[str, Dict] = {}
    for name in sorted(counts):
        durations = sorted(by_name.get(name, ()))
        names[name] = {
            "spans": counts[name],
            "total_ms": sum(durations),
            "p50_ms": _percentile(durations, 0.50),
            "p95_ms": _percentile(durations, 0.95),
            "p99_ms": _percentile(durations, 0.99),
        }
    summary: Dict = {"schema": TRACE_V2_SCHEMA, "spans": total, "names": names}
    if top > 0:
        summary["slowest"] = [
            {"span_id": span_id, "name": name, "total_ms": -negated}
            for negated, span_id, name in sorted(timed, key=_by_time)[:top]
        ]
    return summary


def render_tree(trace_id: str, spans: Sequence[SpanRecord]) -> str:
    """Indented text rendering of a merged trace (``trace tree``)."""
    by_id = {span.span_id: span for span in spans}
    children: Dict[str, List[SpanRecord]] = {}
    roots: List[SpanRecord] = []
    for span in spans:
        if span.parent_id in by_id and span.parent_id != span.span_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    lines = [f"trace {trace_id} ({len(spans)} spans)"]

    def render(span: SpanRecord, depth: int) -> None:
        timing = ""
        if span.total_ms is not None:
            timing = f"  total={span.total_ms:.3f} ms"
            if span.count > 1 and span.mean_ms is not None:
                timing += f"  mean={span.mean_ms:.4f} ms"
        lines.append(f"{'  ' * depth}{span.name}  calls={span.count}{timing}")
        for child in children.get(span.span_id, ()):  # insertion order
            render(child, depth + 1)

    for root in roots:
        render(root, 1)
    return "\n".join(lines)
