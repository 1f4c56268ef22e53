"""Tests for repro.obs.tracing: the ``trace/v2`` job-span layer.

The acceptance contract:

* **identity** — every id in a trace is deterministic: the trace id is
  the job fingerprint, span ids walk the name path, and no clock or
  randomness participates;
* **merging** — shards fold in submission order, so the merged trace is
  invariant under any worker completion order;
* **resume** — a job replayed from its checkpoint journal re-derives a
  trace structurally identical to the uninterrupted run;
* **schema hygiene** — loading a ``trace/v1`` file with the v2 loader
  (or vice versa) fails loudly, naming both versions.
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

import repro.obs as obs
from repro.cli import main as cli_main
from repro.errors import ObservabilityError
from repro.obs.tracing import (
    TIMING_FIELDS,
    TRACE_V2_SCHEMA,
    SpanIdAllocator,
    SpanRecord,
    TraceContext,
    build_repetition_spans,
    load_spans,
    merge_shards,
    render_tree,
    shard_filename,
    span_stats,
    structural_form,
    structure_digest,
    write_shard,
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
    """A minimal worker span profile, parameterized for distinct shards."""
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
    def test_trace_id_is_the_fingerprint(self):
        spec = tiny_spec()
        context = TraceContext.for_job(spec.fingerprint())
        assert context.trace_id == spec.fingerprint()
        assert context.span_id == "job"
        assert context.parent_id is None

    def test_child_walks_the_name_path(self):
        root = TraceContext.for_job("abc")
        rep = root.child("point-3").child("rep-1")
        assert rep.span_id == "job/point-3/rep-1"
        assert rep.parent_id == "job/point-3"
        assert rep.trace_id == "abc"

    def test_context_is_picklable_for_spawn_workers(self):
        context = TraceContext.for_job("abc").child("point-0")
        clone = pickle.loads(pickle.dumps(context))
        assert clone == context

    def test_allocator_numbers_repeats(self):
        allocator = SpanIdAllocator()
        assert allocator.allocate("sensing") == "sensing"
        assert allocator.allocate("sensing") == "sensing:1"
        assert allocator.allocate("sensing") == "sensing:2"
        assert allocator.allocate("backoff") == "backoff"

    def test_repetition_spans_are_a_pure_function(self):
        context = TraceContext.for_job("abc")
        first = build_repetition_spans(context, 0, 1, _profile(3.0))
        second = build_repetition_spans(context, 0, 1, _profile(3.0))
        assert [s.to_dict() for s in first] == [s.to_dict() for s in second]
        assert first[0].span_id == "job/point-0/rep-1"
        names = [span.name for span in first[1:]]
        assert names == sorted(names)


# --------------------------------------------------------------------------- #
# shard io
# --------------------------------------------------------------------------- #


class TestShardIO:
    def test_round_trip(self, tmp_path):
        context = TraceContext.for_job("abc")
        spans = build_repetition_spans(context, 0, 0, _profile(2.0))
        path = tmp_path / shard_filename(0, 0)
        write_shard(path, "abc", 0, 0, spans)
        header, loaded = load_spans(path)
        assert header["schema"] == TRACE_V2_SCHEMA
        assert header["trace_id"] == "abc"
        assert header["shard"] == "point-0.rep-0"
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in spans]

    def test_shard_filename_is_sort_stable(self):
        names = [shard_filename(p, r) for p in (0, 2, 10) for r in (0, 3)]
        assert names == sorted(names)

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
        context = TraceContext.for_job("abc")
        write_trace(
            path,
            "abc",
            merge_shards(
                "abc",
                [self._shard(tmp_path, context, 0, 0)],
                job_name="demo",
            ),
        )
        stats = obs.trace_stats(path, top=2)
        assert stats["schema"] == TRACE_V2_SCHEMA
        assert stats["trace_id"] == "abc"
        assert "engine.slot" in stats["names"]
        assert len(stats["slowest"]) == 2

    @staticmethod
    def _shard(tmp_path, context, point, rep, slot_ms=2.0):
        path = tmp_path / shard_filename(point, rep)
        write_shard(
            path,
            context.trace_id,
            point,
            rep,
            build_repetition_spans(context, point, rep, _profile(slot_ms)),
        )
        return path


# --------------------------------------------------------------------------- #
# merging: submission order, not completion order
# --------------------------------------------------------------------------- #


class TestMergeShards:
    def _shards(self, tmp_path, context):
        paths = []
        slot_ms = 1.0
        for point in range(3):
            for rep in range(2):
                paths.append(
                    TestShardIO._shard(
                        tmp_path, context, point, rep, slot_ms=slot_ms
                    )
                )
                slot_ms += 0.5
        return paths

    def test_merge_is_invariant_under_shard_order(self, tmp_path):
        """Any worker completion order merges to the same trace."""
        context = TraceContext.for_job("abc")
        paths = self._shards(tmp_path, context)
        reference = merge_shards("abc", paths, job_name="demo")
        rng = random.Random(7)
        for _ in range(5):
            shuffled = list(paths)
            rng.shuffle(shuffled)
            merged = merge_shards("abc", shuffled, job_name="demo")
            assert [s.to_dict() for s in merged] == [
                s.to_dict() for s in reference
            ]
            assert structure_digest(merged) == structure_digest(reference)

    def test_point_spans_fold_repetition_timing(self, tmp_path):
        context = TraceContext.for_job("abc")
        paths = self._shards(tmp_path, context)
        merged = merge_shards("abc", paths, job_name="demo")
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

    def test_foreign_shard_is_a_hard_error(self, tmp_path):
        ours = TraceContext.for_job("abc")
        theirs = TraceContext.for_job("def")
        paths = [
            TestShardIO._shard(tmp_path, ours, 0, 0),
            TestShardIO._shard(tmp_path, theirs, 0, 1),
        ]
        with pytest.raises(ObservabilityError, match="belongs to trace"):
            merge_shards("abc", paths)

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

    def test_render_tree_indents_by_parentage(self, tmp_path):
        context = TraceContext.for_job("abc")
        merged = merge_shards(
            "abc",
            [TestShardIO._shard(tmp_path, context, 0, 0)],
            job_name="demo",
        )
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
        in structure: the journal replays re-derive identical shards."""
        spec = tiny_spec()
        execute_job(
            spec,
            tmp_path / "artifact.json",
            checkpoint_path=tmp_path / "journal.ndjson",
        )
        _header, reference = load_spans(tmp_path / "trace.ndjson")

        # SIGKILL aftermath: the merged trace and every shard are gone,
        # only the durable journal survives.
        (tmp_path / "trace.ndjson").unlink()
        for shard in (tmp_path / "trace").glob("*.ndjson"):
            shard.unlink()
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
