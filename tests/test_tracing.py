"""Tests for repro.obs.tracing: the ``trace/v2`` job-span layer.

The acceptance contract:

* **identity** — every id in a trace is deterministic: the trace id is
  the job fingerprint, span ids walk the name path, and no clock or
  randomness participates;
* **merging** — ``(point, repetition, profile)`` triples fold in
  submission order, so the merged trace is invariant under any worker
  completion order;
* **resume** — a job replayed from its checkpoint journal re-derives a
  trace structurally identical to the uninterrupted run;
* **one writer** — the parent writes ``trace.ndjson`` from the outcomes
  it holds; no per-repetition files exist;
* **schema hygiene** — loading a ``trace/v1`` file with the v2 loader
  (or vice versa) fails loudly, naming both versions.
"""

from __future__ import annotations

import json
import random

import pytest

import repro.obs as obs
from repro.cli import main as cli_main
from repro.errors import ObservabilityError
from repro.harness import FAIL_FAST
from repro.obs.tracing import (
    TIMING_FIELDS,
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
from repro.service.jobs import JobSpec, execute_job


@pytest.fixture(autouse=True)
def _null_recorder_between_tests():
    obs.set_recorder(None)
    yield
    obs.set_recorder(None)


TINY = {"area": 900.0, "num_pus": 4, "num_sus": 20, "max_slots": 200_000}


def tiny_spec(**kwargs) -> JobSpec:
    base = dict(
        kind="compare", seed=20120612, repetitions=2, overrides=dict(TINY)
    )
    base.update(kwargs)
    return JobSpec(**base)


def _profile(slot_ms: float) -> dict:
    """A minimal worker span profile, parameterized for distinct reps."""
    return {
        "sweep.repetition": {
            "count": 1,
            "total_ms": 10 * slot_ms,
            "mean_ms": 10 * slot_ms,
            "min_ms": 10 * slot_ms,
            "max_ms": 10 * slot_ms,
        },
        "engine.slot": {
            "count": 100,
            "total_ms": slot_ms,
            "mean_ms": slot_ms / 100,
            "min_ms": 0.001,
            "max_ms": slot_ms / 10,
        },
        "engine.phase.sensing": {
            "count": 100,
            "total_ms": slot_ms / 2,
            "mean_ms": slot_ms / 200,
            "min_ms": 0.0005,
            "max_ms": slot_ms / 20,
        },
    }


# --------------------------------------------------------------------------- #
# deterministic identity
# --------------------------------------------------------------------------- #


class TestTraceContext:
    # A trace's context is its trace id (the job fingerprint) and the name
    # path of each span id. The complete id list of a merged trace is
    # pinned in tests/test_job_outputs.py.
    def test_trace_id_is_the_fingerprint(self, tmp_path):
        spec = tiny_spec()
        spans = merge_shards([(0, 0, _profile(1.0))])
        root = spans[0]
        assert root.span_id == "job"
        assert root.parent_id is None
        write_trace(tmp_path / "trace.ndjson", spec.fingerprint(), spans)
        header, _ = load_spans(tmp_path / "trace.ndjson")
        assert header["trace_id"] == spec.fingerprint()

    def test_child_walks_the_name_path(self):
        rep = build_repetition_spans(3, 1, _profile(1.0))[0]
        assert rep.span_id == "job/point-3/rep-1"
        assert rep.parent_id == "job/point-3"
        spans = merge_shards([(3, 1, _profile(1.0))])
        point = next(s for s in spans if s.span_id == "job/point-3")
        assert point.parent_id == "job"


class TestSpanIds:
    def test_repetition_spans_are_a_pure_function(self):
        first = build_repetition_spans(0, 1, _profile(3.0))
        second = build_repetition_spans(0, 1, _profile(3.0))
        assert [s.to_dict() for s in first] == [s.to_dict() for s in second]
        assert first[0].span_id == "job/point-0/rep-1"
        names = [span.name for span in first[1:]]
        assert names == sorted(names)


# --------------------------------------------------------------------------- #
# trace file io
# --------------------------------------------------------------------------- #


def _triples():
    """Three points of two repetitions, each with a distinct profile."""
    triples = []
    slot_ms = 1.0
    for point in range(3):
        for rep in range(2):
            triples.append((point, rep, _profile(slot_ms)))
            slot_ms += 0.5
    return triples


class TestShardIO:
    def test_round_trip(self, tmp_path):
        spans = merge_shards(_triples(), job_name="demo")
        path = tmp_path / "trace.ndjson"
        write_trace(path, "abc", spans)
        header, loaded = load_spans(path)
        assert header["schema"] == TRACE_V2_SCHEMA
        assert header["trace_id"] == "abc"
        assert header["merged"] is True
        assert header["spans"] == len(spans)
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in spans]

    def test_declared_count_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        header = {"schema": TRACE_V2_SCHEMA, "trace_id": "x", "spans": 5}
        span = {"span_id": "job", "parent_id": None, "name": "job", "count": 1}
        path.write_text(
            json.dumps(header) + "\n" + json.dumps(span) + "\n"
        )
        with pytest.raises(ObservabilityError, match="declares 5 spans"):
            load_spans(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        with pytest.raises(ObservabilityError, match="no header line"):
            load_spans(path)

    def test_loading_v1_file_names_both_schemas(self, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text(
            json.dumps(
                {"schema": "trace/v1", "events": 0, "dropped": 0}
            )
            + "\n"
        )
        with pytest.raises(ObservabilityError) as excinfo:
            load_spans(path)
        message = str(excinfo.value)
        assert "trace/v1" in message
        assert "trace/v2" in message
        assert "load_trace" in message  # points at the right loader

    def test_loading_v2_file_with_v1_loader_names_both_schemas(
        self, tmp_path
    ):
        path = tmp_path / "spans.ndjson"
        write_trace(path, "abc", [SpanRecord("job", None, "job")])
        with pytest.raises(ObservabilityError) as excinfo:
            obs.load_trace(path)
        message = str(excinfo.value)
        assert "trace/v2" in message
        assert "trace/v1" in message
        assert "load_spans" in message

    def test_trace_stats_dispatches_on_schema(self, tmp_path):
        """The stats scanner serves both eras from one entry point."""
        path = tmp_path / "trace.ndjson"
        write_trace(
            path, "abc", merge_shards([(0, 0, _profile(2.0))], "demo")
        )
        stats = obs.trace_stats(path, top=2)
        assert stats["schema"] == TRACE_V2_SCHEMA
        assert stats["trace_id"] == "abc"
        assert "engine.slot" in stats["names"]
        assert len(stats["slowest"]) == 2

    def test_trace_stats_reads_a_v2_file_once(self, tmp_path, monkeypatch):
        """The schema peek's records feed the span loader: one read, and
        the summary equals the one built from a separate load."""
        import repro.obs.tracing as tracing

        path = tmp_path / "trace.ndjson"
        spans = merge_shards([(0, 0, _profile(2.0))], "demo")
        write_trace(path, "abc", spans)
        header, loaded = load_spans(path)
        expected = span_stats(loaded, top=2)
        expected["trace_id"] = header.get("trace_id")
        reads = []
        real_read = tracing.iter_records
        monkeypatch.setattr(
            tracing,
            "iter_records",
            lambda handle: (reads.append(handle.name), real_read(handle))[1],
        )
        assert obs.trace_stats(path, top=2) == expected
        assert reads == [str(path)]


# --------------------------------------------------------------------------- #
# merging: submission order, not completion order
# --------------------------------------------------------------------------- #


class TestMergeShards:
    def test_merge_is_invariant_under_shard_order(self):
        """Any worker completion order merges to the same trace."""
        triples = _triples()
        reference = merge_shards(triples, job_name="demo")
        rng = random.Random(7)
        for _ in range(5):
            shuffled = list(triples)
            rng.shuffle(shuffled)
            merged = merge_shards(shuffled, job_name="demo")
            assert [s.to_dict() for s in merged] == [
                s.to_dict() for s in reference
            ]
            assert structure_digest(merged) == structure_digest(reference)

    def test_point_spans_fold_repetition_timing(self):
        merged = merge_shards(_triples(), job_name="demo")
        assert merged[0].span_id == "job"
        assert merged[0].name == "demo"
        by_id = {span.span_id: span for span in merged}
        point0 = by_id["job/point-0"]
        rep0 = by_id["job/point-0/rep-0"]
        rep1 = by_id["job/point-0/rep-1"]
        assert point0.count == 2
        assert point0.total_ms == pytest.approx(
            rep0.total_ms + rep1.total_ms
        )
        assert merged[0].total_ms == pytest.approx(
            sum(by_id[f"job/point-{p}"].total_ms for p in range(3))
        )

    def test_structural_form_strips_only_timing(self):
        span = SpanRecord(
            "job", None, "job", count=3, total_ms=1.0, mean_ms=0.3
        )
        (structural,) = structural_form([span])
        for field in TIMING_FIELDS:
            assert field not in structural
        assert structural == {
            "span_id": "job",
            "parent_id": None,
            "name": "job",
            "count": 3,
        }

    def test_render_tree_indents_by_parentage(self):
        merged = merge_shards([(0, 0, _profile(2.0))], job_name="demo")
        text = render_tree("abc", merged)
        lines = text.splitlines()
        assert lines[0].startswith("trace abc")
        assert lines[1].strip().startswith("demo")
        # point under job, rep under point, phases under rep
        assert "    point-0" in lines[2]
        assert "      rep-0" in lines[3]
        assert any("engine.phase.sensing" in line for line in lines[4:])


# --------------------------------------------------------------------------- #
# span stats
# --------------------------------------------------------------------------- #


class TestSpanStats:
    def test_percentiles_interpolate(self):
        spans = [
            SpanRecord(f"job/rep-{i}", "job", "rep", total_ms=float(i))
            for i in range(1, 5)  # durations 1, 2, 3, 4
        ]
        stats = span_stats(spans)
        rep = stats["names"]["rep"]
        assert rep["spans"] == 4
        assert rep["total_ms"] == pytest.approx(10.0)
        assert rep["p50_ms"] == pytest.approx(2.5)
        assert rep["p95_ms"] == pytest.approx(3.85)
        assert rep["p99_ms"] == pytest.approx(3.97)

    def test_untimed_spans_still_counted(self):
        stats = span_stats([SpanRecord("job", None, "job")])
        assert stats["names"]["job"]["spans"] == 1
        assert stats["names"]["job"]["total_ms"] == 0.0

    def test_top_lists_slowest_spans(self):
        spans = [
            SpanRecord(f"job/rep-{i}", "job", "rep", total_ms=float(i))
            for i in range(6)
        ]
        stats = span_stats(spans, top=3)
        slowest = stats["slowest"]
        assert [entry["total_ms"] for entry in slowest] == [5.0, 4.0, 3.0]
        assert slowest[0]["span_id"] == "job/rep-5"

    def test_summary_is_json_serializable(self):
        stats = span_stats(
            [SpanRecord("job", None, "job", total_ms=1.0)], top=1
        )
        assert json.loads(json.dumps(stats)) == stats


# --------------------------------------------------------------------------- #
# the acceptance contract: resume merges to the same structure
# --------------------------------------------------------------------------- #


class TestJobTraceLifecycle:
    def test_executed_job_writes_a_merged_trace(self, tmp_path):
        spec = tiny_spec()
        execute_job(
            spec,
            tmp_path / "artifact.json",
            checkpoint_path=tmp_path / "journal.ndjson",
        )
        header, spans = load_spans(tmp_path / "trace.ndjson")
        assert header["trace_id"] == spec.fingerprint()
        assert header["merged"] is True
        span_ids = {span.span_id for span in spans}
        assert "job" in span_ids
        assert "job/point-0/rep-0" in span_ids
        assert "job/point-0/rep-1" in span_ids
        names = {span.name for span in spans}
        assert "engine.slot" in names
        assert "engine.phase.sensing" in names

    def test_resumed_job_recreates_the_same_trace_structure(self, tmp_path):
        """Kill-and-resume merges to the uninterrupted trace, bit for bit
        in structure: journal replays carry the profiles fresh runs do."""
        spec = tiny_spec()
        execute_job(
            spec,
            tmp_path / "artifact.json",
            checkpoint_path=tmp_path / "journal.ndjson",
        )
        _header, reference = load_spans(tmp_path / "trace.ndjson")

        # SIGKILL aftermath: the merged trace is gone, only the durable
        # journal survives.
        (tmp_path / "trace.ndjson").unlink()
        (tmp_path / "artifact.json").unlink()

        execute_job(
            spec,
            tmp_path / "artifact.json",
            checkpoint_path=tmp_path / "journal.ndjson",
            resume=True,
        )
        header, resumed = load_spans(tmp_path / "trace.ndjson")
        assert header["trace_id"] == spec.fingerprint()
        assert structural_form(resumed) == structural_form(reference)
        assert structure_digest(resumed) == structure_digest(reference)

    def test_trace_cli_tree_and_stats(self, tmp_path, capsys):
        """``trace tree`` renders the merged file; ``trace stats --top``
        summarizes it with percentiles and the slowest spans."""
        spec = tiny_spec(repetitions=1)
        execute_job(
            spec,
            tmp_path / "jobs" / spec.fingerprint() / "artifact.json",
            checkpoint_path=(
                tmp_path / "jobs" / spec.fingerprint() / "journal.ndjson"
            ),
        )
        trace_path = tmp_path / "jobs" / spec.fingerprint() / "trace.ndjson"
        assert cli_main(["trace", "tree", str(trace_path)]) == 0
        tree = capsys.readouterr().out
        assert f"trace {spec.fingerprint()}" in tree
        assert "rep-0" in tree and "engine.slot" in tree
        # Fingerprint resolution against a service state directory.
        assert (
            cli_main(
                [
                    "trace",
                    "tree",
                    spec.fingerprint(),
                    "--state-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            cli_main(["trace", "stats", str(trace_path), "--top", "3"]) == 0
        )
        text = capsys.readouterr().out
        assert "trace/v2" in text
        assert "p50=" in text and "p99=" in text
        assert text.count("slow  ") == 3
        assert cli_main(["trace", "tree", str(tmp_path / "nope")]) == 2

    def test_chaos_jobs_are_traced(self, tmp_path):
        spec = JobSpec(
            kind="chaos", seed=3, repetitions=1, overrides=dict(TINY)
        )
        execute_job(
            spec,
            tmp_path / "artifact.json",
            checkpoint_path=tmp_path / "journal.ndjson",
        )
        header, spans = load_spans(tmp_path / "trace.ndjson")
        assert header["trace_id"] == spec.fingerprint()
        span_ids = {span.span_id for span in spans}
        assert "job/point-0/rep-0" in span_ids
        assert "engine.slot" in {span.name for span in spans}

    def test_job_into_a_fresh_directory_writes_no_per_rep_files(self, tmp_path):
        """The job creates its directory and writes only the artifact,
        its manifest, the journal and the merged trace."""
        spec = tiny_spec(repetitions=1)
        job_dir = tmp_path / "jobs" / spec.fingerprint()
        execute_job(
            spec,
            job_dir / "artifact.json",
            checkpoint_path=job_dir / "journal.ndjson",
        )
        assert (job_dir / "trace.ndjson").is_file()
        assert not (job_dir / "trace").exists()
        assert all(path.is_file() for path in job_dir.iterdir())

    def test_quarantined_repetition_leaves_no_span(self, tmp_path, monkeypatch):
        import repro.perf.executor as executor_module

        real = executor_module.execute_work_item

        def poisoned(item):
            if item.repetition == 1:
                raise ValueError("deterministic poison")
            return real(item)

        monkeypatch.setattr(executor_module, "execute_work_item", poisoned)
        spec = tiny_spec(repetitions=3)
        result = execute_job(
            spec,
            tmp_path / "artifact.json",
            checkpoint_path=tmp_path / "journal.ndjson",
            policy=FAIL_FAST,
        )
        assert result.status == "partial"
        _header, spans = load_spans(tmp_path / "trace.ndjson")
        reps = sorted(span.name for span in spans if span.name.startswith("rep-"))
        assert reps == ["rep-0", "rep-2"]
        by_id = {span.span_id: span for span in spans}
        assert by_id["job/point-0"].count == 2
