"""Tests for repro.obs: recorders, spans, NDJSON traces, manifests, CLI.

The load-bearing guarantee is the zero-overhead contract: instrumentation
never touches an RNG stream, so an instrumented run is bit-identical to an
uninstrumented one — results AND stream positions.
"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

import repro.obs as obs
from repro.cli import main as cli_main
from repro.core.addc import AddcPolicy
from repro.core.pcr import PcrParameters, compute_pcr, db_to_linear
from repro.errors import ConfigurationError, ObservabilityError
from repro.experiments.config import ExperimentConfig
from repro.experiments.io import load_sweep, save_sweep
from repro.experiments.runner import run_comparison_point
from repro.graphs.tree import build_collection_tree
from repro.obs.clock import monotonic_s, wall_clock_iso
from repro.obs.progress import Heartbeat
from repro.obs.recorder import DEFAULT_BUCKETS, Histogram, MetricsRecorder
from repro.rng import StreamFactory
from repro.sim.engine import SlottedEngine
from repro.sim.trace import TraceEvent, TraceKind, TraceLog
from repro.spectrum.sensing import CarrierSenseMap


@pytest.fixture(autouse=True)
def _null_recorder_between_tests():
    """Every test starts and ends with the process-wide null default."""
    obs.set_recorder(None)
    yield
    obs.set_recorder(None)


class TestRecorder:
    def test_counters_gauges(self):
        recorder = MetricsRecorder()
        recorder.counter_add("a.calls")
        recorder.counter_add("a.calls", 2)
        recorder.gauge_set("a.level", 3.5)
        recorder.gauge_set("a.level", 1.5)
        snapshot = recorder.snapshot()
        assert snapshot["counters"] == {"a.calls": 3}
        assert snapshot["gauges"] == {"a.level": 1.5}

    def test_histogram_bucket_placement(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            histogram.observe(value)
        # Inclusive upper edges: 1.0 -> first bucket, 10.0 -> second.
        assert histogram.bucket_counts == [2, 2, 1]
        assert histogram.count == 5
        assert histogram.mean == pytest.approx(27.5 / 5)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram(bounds=())
        with pytest.raises(ConfigurationError):
            Histogram(bounds=(5.0, 5.0))

    def test_observe_creates_histogram_with_default_buckets(self):
        recorder = MetricsRecorder()
        recorder.observe("h", 3.0)
        assert recorder.histograms["h"].bounds == DEFAULT_BUCKETS

    def test_span_statistics(self):
        recorder = MetricsRecorder()
        recorder.span_add("s", 0.010)
        recorder.span_add("s", 0.030)
        stats = recorder.profile()["s"]
        assert stats["count"] == 2
        assert stats["total_ms"] == pytest.approx(40.0)
        assert stats["mean_ms"] == pytest.approx(20.0)
        assert stats["min_ms"] == pytest.approx(10.0)
        assert stats["max_ms"] == pytest.approx(30.0)

    def test_reset(self):
        recorder = MetricsRecorder()
        recorder.counter_add("x")
        recorder.reset()
        assert recorder.snapshot()["counters"] == {}


class TestFacade:
    def test_null_default_discards_everything(self):
        assert not obs.enabled()
        obs.counter_add("ghost")
        obs.gauge_set("ghost", 1.0)
        obs.observe("ghost", 1.0)
        assert obs.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert obs.profile() == {}

    def test_null_span_is_shared_noop(self):
        first = obs.span("a")
        second = obs.span("b")
        assert first is second  # no allocation when disabled
        with first:
            pass

    def test_use_recorder_scopes_and_restores(self):
        recorder = MetricsRecorder()
        with obs.use_recorder(recorder):
            assert obs.enabled()
            with obs.span("block"):
                obs.counter_add("calls")
        assert not obs.enabled()
        assert recorder.counters["calls"] == 1
        assert recorder.spans["block"].count == 1
        assert recorder.spans["block"].total_s >= 0.0

    def test_timed_decorator(self):
        calls = []

        @obs.timed("timed.f")
        def f(x):
            calls.append(x)
            return x * 2

        assert f(3) == 6  # disabled fast path
        recorder = MetricsRecorder()
        with obs.use_recorder(recorder):
            assert f(4) == 8
        assert calls == [3, 4]
        assert recorder.spans["timed.f"].count == 1

    def test_clock_helpers(self):
        assert monotonic_s() <= monotonic_s()
        stamp = wall_clock_iso()
        assert stamp.endswith("Z") and "T" in stamp


def make_events(count):
    kinds = list(TraceKind)
    events = []
    for index in range(count):
        events.append(
            TraceEvent(
                slot=index // 3,
                kind=kinds[index % len(kinds)],
                node=index % 29,
                peer=(index % 7) if index % 2 == 0 else None,
                packet_id=index if index % 3 == 0 else None,
                time_in_slot=(index % 50) / 100.0 if index % 5 == 0 else None,
            )
        )
    return events


class TestNdjsonTrace:
    def test_round_trip_10k_events_lossless(self, tmp_path):
        log = TraceLog()
        for event in make_events(10_000):
            log.record(event)
        path = tmp_path / "trace.ndjson"
        obs.export_trace(log, path)
        loaded = obs.load_trace(path)
        assert len(loaded) == 10_000
        assert list(loaded) == list(log)  # lossless, order preserved
        assert loaded.dropped == 0
        assert loaded.max_events is None

    def test_truncated_log_header_records_dropped(self, tmp_path):
        log = TraceLog(max_events=5)
        for event in make_events(12):
            log.record(event)
        path = tmp_path / "trace.ndjson"
        obs.export_trace(log, path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {
            "schema": "trace/v1",
            "events": 5,
            "dropped": 7,
            "max_events": 5,
        }
        loaded = obs.load_trace(path)
        assert loaded.dropped == 7
        assert loaded.truncated
        assert loaded.max_events == 5

    def test_zero_event_log_round_trips(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        obs.export_trace(TraceLog(), path)
        assert len(obs.load_trace(path)) == 0

    def test_streaming_writer_and_footer(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        events = make_events(100)
        with obs.NdjsonTraceWriter(path) as writer:
            for event in events:
                writer.record(event)
        assert writer.events_written == 100
        footer = json.loads(path.read_text().splitlines()[-1])
        assert footer["footer"] is True and footer["events"] == 100
        loaded = obs.load_trace(path)
        assert list(loaded) == events

    def test_streaming_writer_rejects_record_after_close(self, tmp_path):
        writer = obs.NdjsonTraceWriter(tmp_path / "x.ndjson")
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(ObservabilityError):
            writer.record(make_events(1)[0])

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"schema": "trace/v99"}\n')
        with pytest.raises(ObservabilityError, match="schema"):
            obs.load_trace(path)

    def test_load_rejects_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text(
            '{"schema": "trace/v1", "events": 2, "dropped": 0}\n'
            '{"slot": 0, "kind": "tx_start", "node": 1}\n'
        )
        with pytest.raises(ObservabilityError, match="declares 2"):
            obs.load_trace(path)

    def test_load_rejects_missing_file_and_empty_file(self, tmp_path):
        with pytest.raises(ObservabilityError):
            obs.load_trace(tmp_path / "absent.ndjson")
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        with pytest.raises(ObservabilityError, match="empty"):
            obs.load_trace(empty)

    def test_load_rejects_events_after_footer(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text(
            '{"schema": "trace/v1"}\n'
            '{"schema": "trace/v1", "footer": true, "events": 0, "dropped": 0}\n'
            '{"slot": 0, "kind": "tx_start", "node": 1}\n'
        )
        with pytest.raises(ObservabilityError, match="footer"):
            obs.load_trace(path)

    def test_trace_stats(self, tmp_path):
        log = TraceLog()
        log.record(TraceEvent(slot=2, kind=TraceKind.TX_START, node=1, peer=4))
        log.record(TraceEvent(slot=7, kind=TraceKind.TX_START, node=1))
        log.record(TraceEvent(slot=5, kind=TraceKind.DELIVERY, node=2))
        path = tmp_path / "trace.ndjson"
        obs.export_trace(log, path)
        stats = obs.trace_stats(path)
        assert stats["events"] == 3
        assert stats["first_slot"] == 2 and stats["last_slot"] == 7
        assert stats["kinds"] == {"delivery": 1, "tx_start": 2}
        assert stats["nodes"] == 3  # nodes 1 and 2 plus peer 4


class TestManifest:
    def test_config_fingerprint_is_order_insensitive(self):
        assert obs.config_fingerprint({"a": 1, "b": 2}) == obs.config_fingerprint(
            {"b": 2, "a": 1}
        )
        assert obs.config_fingerprint({"a": 1}) != obs.config_fingerprint({"a": 2})

    def test_config_fingerprint_accepts_dataclasses(self):
        config = ExperimentConfig.quick_scale()
        assert obs.config_fingerprint(config) == obs.config_fingerprint(
            dataclasses.asdict(config)
        )

    def test_build_write_load_round_trip(self, tmp_path):
        recorder = MetricsRecorder()
        recorder.counter_add("engine.runs")
        recorder.span_add("engine.run", 0.25)
        manifest = obs.build_manifest(
            seed=42,
            config={"n": 5},
            wall_time_s=0.25,
            recorder=recorder,
            extra={"note": "test"},
        )
        path = tmp_path / "run.manifest.json"
        obs.write_manifest(path, manifest)
        loaded = obs.load_manifest(path)
        assert loaded.schema == obs.MANIFEST_SCHEMA
        assert loaded.seed == 42
        assert loaded.config_hash == obs.config_fingerprint({"n": 5})
        assert loaded.metrics["counters"] == {"engine.runs": 1}
        assert loaded.profile["engine.run"]["count"] == 1
        assert loaded.extra == {"note": "test"}
        assert loaded.platform["python"]

    def test_build_defaults_to_installed_recorder(self):
        recorder = MetricsRecorder()
        recorder.counter_add("x")
        with obs.use_recorder(recorder):
            manifest = obs.build_manifest()
        assert manifest.metrics["counters"] == {"x": 1}

    def test_manifest_path_for(self):
        assert obs.manifest_path_for("out/sweep.json").name == "sweep.manifest.json"
        assert obs.manifest_path_for("out/sweep").name == "sweep.manifest.json"

    def test_load_rejects_non_manifests(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"schema": "other/v1"}')
        with pytest.raises(ObservabilityError, match="manifest"):
            obs.load_manifest(path)
        with pytest.raises(ObservabilityError):
            obs.load_manifest(tmp_path / "absent.json")

    def test_render_report_covers_all_sections(self):
        recorder = MetricsRecorder()
        recorder.counter_add("engine.slots", 100)
        recorder.gauge_set("engine.max_backlog", 7)
        recorder.observe("engine.packet_delay_slots", 12.0)
        recorder.span_add("engine.run", 0.5)
        manifest = obs.build_manifest(seed=1, recorder=recorder, wall_time_s=0.5)
        text = obs.render_report(manifest)
        assert "METRICS" in text and "PROFILE" in text
        assert "engine.slots" in text and "engine.run" in text
        assert "share" in text


def make_engine(topology, streams):
    pcr = compute_pcr(
        PcrParameters(
            alpha=4.0,
            pu_power=10.0,
            su_power=10.0,
            pu_radius=10.0,
            su_radius=10.0,
            eta_p_db=8.0,
            eta_s_db=8.0,
        )
    )
    sense_map = CarrierSenseMap(topology, pcr.pcr)
    tree = build_collection_tree(topology.secondary.graph, 0)
    engine = SlottedEngine(
        topology=topology,
        sense_map=sense_map,
        policy=AddcPolicy(tree),
        streams=streams,
        alpha=4.0,
        eta_s=db_to_linear(8.0),
        max_slots=200_000,
    )
    engine.load_snapshot()
    return engine


class TestDeterminism:
    """The golden guarantee: instrumentation changes nothing."""

    def run_once(self, topology, recorder):
        engine = make_engine(topology, StreamFactory(777).spawn("obs-det"))
        if recorder is None:
            result = engine.run()
        else:
            with obs.use_recorder(recorder):
                result = engine.run()
        # Post-run draws expose the exact stream positions: if the
        # instrumented run consumed even one extra random number, these
        # diverge.
        positions = (
            float(engine._backoff_rng.random()),
            float(engine._pu_rng.random()),
            float(engine._sensing_rng.random()),
        )
        return result, positions

    def test_instrumented_run_is_bit_identical(self, tiny_topology):
        baseline, baseline_positions = self.run_once(tiny_topology, None)
        recorder = MetricsRecorder()
        instrumented, instrumented_positions = self.run_once(
            tiny_topology, recorder
        )
        assert dataclasses.asdict(instrumented) == dataclasses.asdict(baseline)
        assert instrumented_positions == baseline_positions
        # ... while the recorder actually collected a profile.
        assert recorder.spans["engine.run"].count == 1
        # Fast-forwarded slots never enter the engine.slot span; the
        # counter accounts for them, so the books still balance.
        assert (
            recorder.spans["engine.slot"].count
            + recorder.counters["engine.fastforward_slots"]
            == baseline.slots_simulated
        )
        assert recorder.counters["engine.deliveries"] == baseline.delivered
        assert recorder.counters["engine.slots"] == baseline.slots_simulated
        histogram = recorder.histograms["engine.packet_delay_slots"]
        assert histogram.count == baseline.delivered

    def test_instrumented_sweep_matches_goldens(self):
        config = ExperimentConfig(
            area=30.0 * 30.0,
            num_pus=6,
            num_sus=25,
            repetitions=2,
            max_slots=100_000,
            blocking="homogeneous",
        )
        baseline = run_comparison_point(config)
        recorder = MetricsRecorder()
        with obs.use_recorder(recorder):
            instrumented = run_comparison_point(config)
        assert instrumented.addc_delays == baseline.addc_delays
        assert instrumented.coolest_delays == baseline.coolest_delays
        assert instrumented.skipped_repetitions == baseline.skipped_repetitions
        assert recorder.counters["sweep.repetitions"] == 2
        assert recorder.spans["sweep.repetition"].count == 2
        assert recorder.profile()  # non-empty profile for the manifest


class TestSweepManifest:
    def test_save_sweep_writes_manifest_sibling(self, tmp_path):
        config = ExperimentConfig(
            area=30.0 * 30.0,
            num_pus=6,
            num_sus=25,
            repetitions=1,
            max_slots=100_000,
            blocking="homogeneous",
        )
        recorder = MetricsRecorder()
        with obs.use_recorder(recorder):
            point = run_comparison_point(config)
            manifest = obs.build_manifest(
                seed=config.seed, config=config, recorder=recorder
            )
        target = tmp_path / "sweep.json"
        save_sweep(target, "fig6x", [(1.0, point)], manifest=manifest)
        name, points = load_sweep(target)
        assert name == "fig6x" and len(points) == 1
        sibling = tmp_path / "sweep.manifest.json"
        loaded = obs.load_manifest(sibling)
        assert loaded.config_hash == obs.config_fingerprint(config)
        assert loaded.profile  # the paper trail: how the data was produced

    def test_save_sweep_without_manifest_writes_no_sibling(self, tmp_path):
        config = ExperimentConfig(
            area=30.0 * 30.0,
            num_pus=6,
            num_sus=25,
            repetitions=1,
            max_slots=100_000,
            blocking="homogeneous",
        )
        point = run_comparison_point(config)
        target = tmp_path / "sweep.json"
        save_sweep(target, "fig6x", [(1.0, point)])
        assert not (tmp_path / "sweep.manifest.json").exists()


class TestHeartbeat:
    def test_emits_progress_lines(self):
        sink = io.StringIO()
        beat = Heartbeat(4, label="sweep", stream=sink, min_interval_s=0.0)
        for _ in range(4):
            beat.tick()
        lines = sink.getvalue().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("[sweep] 1/4 (25.0%)")
        assert lines[-1].startswith("[sweep] 4/4 (100.0%)")
        assert "ETA 0:00" in lines[-1]

    def test_throttling_always_emits_final_line(self):
        sink = io.StringIO()
        beat = Heartbeat(100, label="x", stream=sink, min_interval_s=3600.0)
        for _ in range(100):
            beat.tick()
        lines = sink.getvalue().splitlines()
        assert lines[0].startswith("[x] 1/100")
        assert lines[-1].startswith("[x] 100/100")
        assert len(lines) == 2  # everything between was throttled

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            Heartbeat(0)

    def test_runner_ticks_heartbeat(self):
        sink = io.StringIO()
        config = ExperimentConfig(
            area=30.0 * 30.0,
            num_pus=6,
            num_sus=25,
            repetitions=2,
            max_slots=100_000,
            blocking="homogeneous",
        )
        beat = Heartbeat(2, label="point", stream=sink, min_interval_s=0.0)
        run_comparison_point(config, progress=beat)
        assert beat.done == 2
        assert "[point] 2/2 (100.0%)" in sink.getvalue()


class TestCli:
    def test_obs_report_smoke(self, capsys):
        assert cli_main(["obs", "report", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "obs smoke OK" in out
        assert "PROFILE" in out and "engine.slot" in out

    def test_obs_report_renders_saved_manifest(self, tmp_path, capsys):
        recorder = MetricsRecorder()
        recorder.counter_add("engine.runs")
        manifest = obs.build_manifest(seed=9, recorder=recorder)
        path = tmp_path / "run.manifest.json"
        obs.write_manifest(path, manifest)
        assert cli_main(["obs", "report", str(path)]) == 0
        assert "engine.runs" in capsys.readouterr().out
        assert cli_main(["obs", "report", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 9

    def test_obs_report_without_manifest_or_smoke_errors(self, capsys):
        assert cli_main(["obs", "report"]) == 2
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["perf", "bench", "--smoke"],
            ["obs", "bench"],
            ["obs", "export", "run.manifest.json", "--format", "prom"],
        ],
    )
    def test_retired_benches_and_options_are_usage_errors(self, argv, capsys):
        # Timings are gated end to end by benchmarks/e2e_gate.py instead.
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2

    def test_trace_export_and_stats(self, tmp_path, capsys):
        out = tmp_path / "trace.ndjson"
        assert cli_main(["trace", "export", "--out", str(out)]) == 0
        assert "events" in capsys.readouterr().out
        assert cli_main(["trace", "stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "trace/v1" in text and "backoff_draw" in text
        assert cli_main(["trace", "stats", str(out), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["events"] > 0 and stats["dropped"] == 0
        # The exported stream round-trips through the loader.
        assert len(obs.load_trace(out)) == stats["events"]


# --------------------------------------------------------------------------- #
# histogram percentiles
# --------------------------------------------------------------------------- #


class TestHistogramPercentile:
    def test_empty_histogram_has_no_percentile(self):
        assert obs.histogram_percentile((1.0, 2.0), (0, 0, 0), 0.5) is None

    def test_bad_quantile_raises(self):
        with pytest.raises(ConfigurationError, match="quantile"):
            obs.histogram_percentile((1.0,), (1, 0), 1.5)

    def test_linear_interpolation_inside_a_bucket(self):
        # 10 observations, all in (1, 2]: the median is mid-bucket.
        bounds = (1.0, 2.0, 4.0)
        counts = (0, 10, 0, 0)
        assert obs.histogram_percentile(bounds, counts, 0.5) == pytest.approx(
            1.5
        )
        assert obs.histogram_percentile(bounds, counts, 1.0) == pytest.approx(
            2.0
        )

    def test_overflow_bucket_yields_inf(self):
        # The tail rank lands past the last bound: report inf, not a
        # made-up number that would understate a tail regression.
        bounds = (1.0, 2.0)
        counts = (5, 4, 1)
        assert obs.histogram_percentile(bounds, counts, 0.99) == float("inf")

    def test_report_renders_histogram_percentiles(self):
        recorder = MetricsRecorder()
        for value in (1, 2, 3, 5, 8, 13, 210, 340, 550):
            recorder.observe("engine.packet_delay_slots", float(value))
        manifest = obs.build_manifest(recorder=recorder)
        text = obs.render_report(manifest)
        (line,) = [
            l for l in text.splitlines() if "engine.packet_delay_slots" in l
        ]
        assert "p50=" in line and "p95=" in line and "p99=" in line


# --------------------------------------------------------------------------- #
# prometheus export
# --------------------------------------------------------------------------- #


class TestPrometheusExport:
    def test_counters_gauges_and_spans(self):
        from repro.obs.export import render_prometheus

        recorder = MetricsRecorder()
        recorder.counter_add("engine.slots", 42)
        recorder.gauge_set("engine.max_backlog", 7.5)
        recorder.span_add("engine.slot", 0.25)
        text = render_prometheus(recorder.snapshot(), recorder.profile())
        assert "# TYPE addc_engine_slots_total counter" in text
        assert "addc_engine_slots_total 42" in text
        assert "addc_engine_max_backlog 7.5" in text
        assert 'addc_span_calls_total{span="engine.slot"} 1' in text
        assert 'addc_span_seconds_total{span="engine.slot"} 0.25' in text

    def test_histogram_buckets_are_cumulative(self):
        from repro.obs.export import render_prometheus

        snapshot = {
            "histograms": {
                "engine.delay": {
                    "bounds": [1.0, 2.0],
                    "bucket_counts": [3, 2, 1],
                    "count": 6,
                    "total": 9.0,
                }
            }
        }
        text = render_prometheus(snapshot)
        assert 'addc_engine_delay_bucket{le="1"} 3' in text
        assert 'addc_engine_delay_bucket{le="2"} 5' in text
        assert 'addc_engine_delay_bucket{le="+Inf"} 6' in text
        assert "addc_engine_delay_sum 9" in text
        assert "addc_engine_delay_count 6" in text

    def test_equal_snapshots_export_equal_bytes(self):
        from repro.obs.export import render_prometheus

        snapshot = {"counters": {"b.x": 1, "a.y": 2}}
        assert render_prometheus(snapshot) == render_prometheus(
            {"counters": {"a.y": 2, "b.x": 1}}
        )
        # sorted by metric name, so ordering is canonical
        lines = render_prometheus(snapshot).splitlines()
        assert lines[1].startswith("addc_a_y_total")


# --------------------------------------------------------------------------- #
# manifest diff: the perf ratchet
# --------------------------------------------------------------------------- #


def _ratchet_manifest(mean_ms: float, wall: float = 10.0) -> dict:
    recorder = MetricsRecorder()
    recorder.counter_add("engine.slots", 1000)
    recorder.span_add("engine.slot", mean_ms / 1e3)
    manifest = obs.build_manifest(recorder=recorder, wall_time_s=wall)
    return json.loads(json.dumps(dataclasses.asdict(manifest)))


class TestManifestDiff:
    def test_equal_manifests_have_no_regression(self):
        from repro.obs.diff import diff_manifests

        manifest = _ratchet_manifest(2.0)
        rows = diff_manifests(manifest, manifest, tolerance_pct=5.0)
        assert rows
        assert not any(row.regression for row in rows)
        assert all(row.delta_pct == 0.0 for row in rows)

    def test_synthetic_regression_is_flagged(self):
        from repro.obs.diff import diff_manifests

        rows = diff_manifests(
            _ratchet_manifest(2.0), _ratchet_manifest(4.0), tolerance_pct=50.0
        )
        flagged = {row.name for row in rows if row.regression}
        assert "profile.engine.slot.mean_ms" in flagged

    def test_machine_shape_figures_never_gate(self):
        from repro.obs.diff import diff_manifests

        # wall_time_s doubles, but it is informational (machine-shape).
        rows = diff_manifests(
            _ratchet_manifest(2.0, wall=10.0),
            _ratchet_manifest(2.0, wall=20.0),
            tolerance_pct=5.0,
        )
        wall = next(row for row in rows if row.name == "wall_time_s")
        assert not wall.gated
        assert not wall.regression

    def test_leaving_a_zero_baseline_is_a_regression(self):
        from repro.obs.diff import diff_manifests

        def manifest(repair_slots: float, delivery: float) -> dict:
            figures = {
                "repair_worst_slots": {"value": repair_slots},
                "delivery_ratio": {"value": delivery, "higher_better": True},
            }
            return {"extra": {"resilience": {"figures": figures}}}

        # No percentage tolerance covers a move off zero in the wrong
        # direction; the same move in the right direction is fine.
        rows = {
            row.name: row
            for row in diff_manifests(
                manifest(0.0, 0.0), manifest(3.0, 0.5), tolerance_pct=400.0
            )
        }
        repair = rows["resilience.repair_worst_slots"]
        assert repair.regression and repair.delta_pct == float("inf")
        delivery = rows["resilience.delivery_ratio"]
        assert not delivery.regression and delivery.delta_pct == float("inf")
        # Zero to zero is no move at all.
        same = diff_manifests(
            manifest(0.0, 0.0), manifest(0.0, 0.0), tolerance_pct=5.0
        )
        assert all(row.delta_pct == 0.0 and not row.regression for row in same)

    def test_no_shared_figures_is_an_error(self):
        from repro.obs.diff import diff_manifests

        empty = json.loads(
            json.dumps(dataclasses.asdict(obs.build_manifest()))
        )
        with pytest.raises(ObservabilityError, match="no comparable"):
            diff_manifests(empty, empty, tolerance_pct=5.0)


class TestRatchetCli:
    def _write(self, tmp_path, name, mean_ms):
        path = tmp_path / name
        path.write_text(json.dumps(_ratchet_manifest(mean_ms)))
        return path

    def test_diff_exits_zero_without_regression(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", 2.0)
        new = self._write(tmp_path, "new.json", 2.02)
        code = cli_main(
            ["obs", "diff", str(old), str(new), "--fail-on-regression", "5"]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_diff_exits_nonzero_on_regression(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", 2.0)
        new = self._write(tmp_path, "new.json", 20.0)
        code = cli_main(
            ["obs", "diff", str(old), str(new), "--fail-on-regression", "5"]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_json_output(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", 2.0)
        code = cli_main(["obs", "diff", str(old), str(old), "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(r["name"] == "profile.engine.slot.mean_ms" for r in rows)

    def test_export_prometheus_from_manifest(self, tmp_path, capsys):
        manifest = self._write(tmp_path, "run.manifest.json", 2.0)
        code = cli_main(["obs", "export", str(manifest)])
        assert code == 0
        out = capsys.readouterr().out
        assert "addc_engine_slots_total 1000" in out
        assert 'addc_span_seconds_total{span="engine.slot"}' in out

    def test_export_writes_out_file(self, tmp_path, capsys):
        manifest = self._write(tmp_path, "run.manifest.json", 2.0)
        target = tmp_path / "metrics.prom"
        assert (
            cli_main(
                ["obs", "export", str(manifest), "--out", str(target)]
            )
            == 0
        )
        assert "addc_engine_slots_total" in target.read_text()
